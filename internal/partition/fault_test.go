package partition_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/store"
)

// probe is a cheap deterministic 3-parameter system for fan-out tests.
type probe struct{}

func (probe) Name() string { return "probe" }
func (probe) Params() []dynsys.Param {
	return []dynsys.Param{
		{Name: "a", Min: 0, Max: 1},
		{Name: "b", Min: 0, Max: 2},
		{Name: "c", Min: -1, Max: 1},
	}
}
func (probe) StateDim() int { return 2 }
func (probe) Trajectory(vals []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		ti := float64(i)
		out[i] = []float64{vals[0] + ti*vals[1], vals[2] * ti}
	}
	return out
}

func probeSpace(sys dynsys.System) *ensemble.Space { return ensemble.NewSpace(sys, 4, 3) }

func probeConfig(t *testing.T, space *ensemble.Space) partition.Config {
	t.Helper()
	cfg := partition.DefaultConfig(space.Order(), space.TimeMode(), nil)
	if err := cfg.Validate(space.Order()); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestGenerateCtxMatchesGenerate(t *testing.T) {
	space := probeSpace(probe{})
	cfg := probeConfig(t, space)
	want, err := partition.GenerateCtx(context.Background(), space, cfg, newRand(5), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := partition.GenerateCtx(context.Background(), probeSpace(probe{}), cfg, newRand(5), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sub1.Tensor.Idx, want.Sub1.Tensor.Idx) ||
		!reflect.DeepEqual(got.Sub1.Tensor.Vals, want.Sub1.Tensor.Vals) ||
		!reflect.DeepEqual(got.Sub2.Tensor.Idx, want.Sub2.Tensor.Idx) ||
		!reflect.DeepEqual(got.Sub2.Tensor.Vals, want.Sub2.Tensor.Vals) {
		t.Fatalf("GenerateCtx output differs from Generate")
	}
	if got.Stats.ExecutedSims != got.NumSims || got.Stats.FailedSims != 0 {
		t.Fatalf("clean run stats off: %+v (NumSims %d)", got.Stats, got.NumSims)
	}
}

func TestGenerateCtxFaultAccountingBalances(t *testing.T) {
	cfg0 := faults.Config{Seed: 21, TransientRate: 0.3, DivergentRate: 0.25}
	inj := faults.New(cfg0)
	space := probeSpace(probe{})
	pcfg := probeConfig(t, space)

	res, err := partition.GenerateCtx(context.Background(), space, pcfg, newRand(6), partition.SimOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := partition.GenerateCtx(context.Background(), probeSpace(probe{}), pcfg, newRand(6), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}

	s := res.Stats
	is := inj.Stats()
	if is.TransientSims == 0 || is.DivergentSims == 0 {
		t.Fatalf("fault rates produced no faults (%+v); test is vacuous", is)
	}
	// Transients all recover within the retry budget: nothing fails.
	if s.FailedSims != 0 {
		t.Fatalf("FailedSims = %d with recoverable faults only", s.FailedSims)
	}
	if s.ExecutedSims != res.NumSims {
		t.Fatalf("ExecutedSims %d != NumSims %d", s.ExecutedSims, res.NumSims)
	}
	// Every transient-affected simulation burned its failures inside one
	// retry loop, so retried sims match the injector's distinct count.
	if s.RetriedSims != is.TransientSims {
		t.Fatalf("RetriedSims %d != injected transient sims %d", s.RetriedSims, is.TransientSims)
	}
	// Every divergent cell was quarantined and nothing else was lost.
	cleanCells := clean.Sub1.Tensor.NNZ() + clean.Sub2.Tensor.NNZ()
	gotCells := res.Sub1.Tensor.NNZ() + res.Sub2.Tensor.NNZ()
	if s.QuarantinedCells != cleanCells-gotCells {
		t.Fatalf("QuarantinedCells %d != lost cells %d", s.QuarantinedCells, cleanCells-gotCells)
	}
	if s.QuarantinedCells == 0 {
		t.Fatalf("divergent sims produced no quarantined cells")
	}
}

func TestGenerateCtxRetryExhaustionFailsSim(t *testing.T) {
	// TransientAttempts beyond the attempt budget: affected sims fail and
	// their cells are absent, degrading density instead of erroring the
	// whole campaign.
	inj := faults.New(faults.Config{Seed: 22, TransientRate: 0.4, TransientAttempts: 5})
	space := probeSpace(probe{})
	pcfg := probeConfig(t, space)

	res, err := partition.GenerateCtx(context.Background(), space, pcfg, newRand(7), partition.SimOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	is := inj.Stats()
	if res.Stats.FailedSims == 0 || is.TransientSims == 0 {
		t.Fatalf("no failures despite exhausted retries (stats %+v, injected %+v)", res.Stats, is)
	}
	if res.Stats.ExecutedSims+res.Stats.FailedSims != res.NumSims {
		t.Fatalf("executed %d + failed %d != %d sims", res.Stats.ExecutedSims, res.Stats.FailedSims, res.NumSims)
	}
	clean, _ := partition.GenerateCtx(context.Background(), probeSpace(probe{}), pcfg, newRand(7), partition.SimOptions{})
	if got, want := res.Sub1.Tensor.NNZ()+res.Sub2.Tensor.NNZ(), clean.Sub1.Tensor.NNZ()+clean.Sub2.Tensor.NNZ(); got >= want {
		t.Fatalf("failed sims did not reduce stored cells: %d >= %d", got, want)
	}
}

func TestGenerateCtxPanicBecomesFailedSim(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 23, PanicRate: 1})
	space := probeSpace(probe{})
	pcfg := probeConfig(t, space)
	res, err := partition.GenerateCtx(context.Background(), space, pcfg, newRand(8), partition.SimOptions{Faults: inj})
	if err != nil {
		t.Fatalf("panicking sims must become recorded failures, not errors: %v", err)
	}
	if res.Stats.FailedSims != res.NumSims || res.Stats.ExecutedSims != 0 {
		t.Fatalf("stats %+v, want all %d sims failed", res.Stats, res.NumSims)
	}
	if res.Sub1.Tensor.NNZ() != 0 || res.Sub2.Tensor.NNZ() != 0 {
		t.Fatalf("failed sims left cells behind")
	}
}

func TestGenerateCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	space := probeSpace(probe{})
	pcfg := probeConfig(t, space)
	_, err := partition.GenerateCtx(ctx, space, pcfg, newRand(9), partition.SimOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const fp = "probe|res=4|t=3|seed=10"

	// Uninterrupted reference campaign.
	pcfgSpace := probeSpace(probe{})
	pcfg := probeConfig(t, pcfgSpace)
	ref, err := partition.GenerateCtx(context.Background(), pcfgSpace, pcfg, newRand(10), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Campaign 1: cancelled after a handful of simulation attempts.
	ctx1, cancel1 := context.WithCancel(context.Background())
	var attempts atomic.Int64
	inj1 := faults.New(faults.Config{Seed: 1, Hook: func() {
		if attempts.Add(1) == 5 {
			cancel1()
		}
	}})
	space1 := probeSpace(probe{})
	_, err = partition.GenerateCtx(ctx1, space1, pcfg, newRand(10), partition.SimOptions{
		Workers:    2,
		Faults:     inj1,
		Checkpoint: &ensemble.Checkpoint{Store: st, Fingerprint: fp, Every: 1},
	})
	cancel1()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign 1: want Canceled, got %v", err)
	}

	// Campaign 2: resumes, executes only unfinished sims, and reassembles
	// bit-identically.
	var attempts2 atomic.Int64
	inj2 := faults.New(faults.Config{Seed: 1, Hook: func() { attempts2.Add(1) }})
	space2 := probeSpace(probe{})
	res, err := partition.GenerateCtx(context.Background(), space2, pcfg, newRand(10), partition.SimOptions{
		Workers:    2,
		Faults:     inj2,
		Checkpoint: &ensemble.Checkpoint{Store: st, Fingerprint: fp, Every: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RestoredSims == 0 {
		t.Fatalf("resume restored nothing; checkpoint was not persisted")
	}
	if res.Stats.RestoredSims+res.Stats.ExecutedSims != res.NumSims {
		t.Fatalf("restored %d + executed %d != %d sims", res.Stats.RestoredSims, res.Stats.ExecutedSims, res.NumSims)
	}
	if got := int(attempts2.Load()); got != res.Stats.ExecutedSims {
		t.Fatalf("resumed campaign ran %d simulations, want exactly the %d unfinished ones", got, res.Stats.ExecutedSims)
	}
	if !reflect.DeepEqual(res.Sub1.Tensor.Idx, ref.Sub1.Tensor.Idx) ||
		!reflect.DeepEqual(res.Sub1.Tensor.Vals, ref.Sub1.Tensor.Vals) ||
		!reflect.DeepEqual(res.Sub2.Tensor.Idx, ref.Sub2.Tensor.Idx) ||
		!reflect.DeepEqual(res.Sub2.Tensor.Vals, ref.Sub2.Tensor.Vals) {
		t.Fatalf("resumed campaign is not bit-identical to the uninterrupted one")
	}
}

func TestCheckpointFingerprintMismatchIgnored(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	space := probeSpace(probe{})
	pcfg := probeConfig(t, space)
	if _, err := partition.GenerateCtx(context.Background(), space, pcfg, newRand(11), partition.SimOptions{
		Checkpoint: &ensemble.Checkpoint{Store: st, Fingerprint: "config-A", Every: 1},
	}); err != nil {
		t.Fatal(err)
	}
	// Resume under a different fingerprint: the stale checkpoint must be
	// ignored, not restored.
	res, err := partition.GenerateCtx(context.Background(), probeSpace(probe{}), pcfg, newRand(11), partition.SimOptions{
		Checkpoint: &ensemble.Checkpoint{Store: st, Fingerprint: "config-B", Every: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RestoredSims != 0 {
		t.Fatalf("restored %d sims from a mismatched checkpoint", res.Stats.RestoredSims)
	}
	if res.Stats.ExecutedSims != res.NumSims {
		t.Fatalf("executed %d != %d", res.Stats.ExecutedSims, res.NumSims)
	}
}

// TestCheckpointSaveErrorFailsCampaign: losing checkpoint durability is a
// campaign failure on both save paths — the mid-campaign save a worker
// writes outside the fan-out's locks (Every: 1) and the final flush.
func TestCheckpointSaveErrorFailsCampaign(t *testing.T) {
	for _, every := range []int{1, 1 << 20} {
		dir := filepath.Join(t.TempDir(), "catalog")
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil { // every save now fails
			t.Fatal(err)
		}
		space := probeSpace(probe{})
		_, err = partition.GenerateCtx(context.Background(), space, probeConfig(t, space), newRand(12), partition.SimOptions{
			Workers:    2,
			Checkpoint: &ensemble.Checkpoint{Store: st, Fingerprint: "fp", Every: every},
		})
		if err == nil || !strings.Contains(err.Error(), "checkpoint save") {
			t.Fatalf("Every=%d: want a checkpoint save error, got %v", every, err)
		}
	}
}
