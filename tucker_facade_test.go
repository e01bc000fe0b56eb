package m2td

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// facadeTestTensor builds a small deterministic sparse tensor.
func facadeTestTensor() *tensor.Sparse {
	t := tensor.NewSparse(tensor.Shape{5, 4, 3})
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 3; k++ {
				if (i+j+k)%2 == 0 {
					t.Append([]int{i, j, k}, float64(1+i)*0.5+float64(j*k))
				}
			}
		}
	}
	return t
}

func TestTuckerCtxMatchesInternal(t *testing.T) {
	x := facadeTestTensor()
	ranks := tucker.UniformRanks(x.Order(), 2)
	ctx := context.Background()

	res, err := TuckerCtx(ctx, x, TuckerOptions{Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := tucker.HOSVDWorkers(x, ranks, 0)
	if got, ref := res.Decomposition.Core.Norm(), want.Core.Norm(); got != ref {
		//lint:allow floatcmp -- bit-identity assertion between two code paths of the same kernel
		t.Fatalf("facade HOSVD core norm %v != internal %v", got, ref)
	}
	fit, err := res.Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	if fit <= 0 || fit > 1 {
		t.Fatalf("fit %v outside (0, 1]", fit)
	}

	hres, err := TuckerCtx(ctx, x, TuckerOptions{Rank: 2, HOOI: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	hfit, err := hres.Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	if hfit < fit-1e-12 {
		t.Fatalf("HOOI fit %v worse than HOSVD fit %v", hfit, fit)
	}

	sres, err := TuckerCtx(ctx, x, TuckerOptions{Rank: 2, Sketch: SketchConfig{KeepFrac: 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Sketched || sres.SketchInput != x.NNZ() || sres.SketchKept <= 0 {
		t.Fatalf("sketch accounting: %+v", sres)
	}
}

func TestTuckerCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TuckerCtx(ctx, facadeTestTensor(), TuckerOptions{}); err == nil {
		t.Fatal("cancelled TuckerCtx succeeded")
	}
}

// A sketched HOOI refinement is as cancellable as an unsketched one: the
// sketch pass runs to its end, the sweeps after it observe the context.
// The tensor is sized so that ten uncancelled sweeps take far longer than
// the watcher needs to see the sketch span and cancel.
func TestTuckerCtxSketchedHOOICancelledAfterSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.NewSparse(tensor.Shape{60, 60, 60})
	for e := 0; e < 150000; e++ {
		x.Append([]int{rng.Intn(60), rng.Intn(60), rng.Intn(60)}, rng.NormFloat64())
	}
	trace := obs.New("test")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for trace.Root().Find("tucker", "sketch") == nil && ctx.Err() == nil {
			runtime.Gosched()
		}
		cancel()
	}()
	_, err := TuckerCtx(ctx, x, TuckerOptions{Rank: 4, HOOI: true, Sketch: SketchConfig{KeepFrac: 0.9}, Parallel: 1, Trace: trace})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sketched HOOI cancelled after its sketch: want context.Canceled, got %v", err)
	}
	if trace.Root().Find("tucker", "sketch") == nil {
		t.Fatal("cancelled before the sketch ran: the test proved nothing")
	}
}

// The three TestRunSketch* tests below keep the names they had while a
// campaign (RunCtx) could sketch; TuckerCtx is the one facade entry that
// still does, and its sketch is what they run.

// TestRunSketchKeepAllMatchesPlain: a full-keep sketch is the tensor itself,
// so the decomposition is the unsketched one to the bit, reported as a full
// keep.
func TestRunSketchKeepAllMatchesPlain(t *testing.T) {
	x := facadeTestTensor()
	ctx := context.Background()
	for _, hooi := range []bool{false, true} {
		plain, err := TuckerCtx(ctx, x, TuckerOptions{Rank: 2, HOOI: hooi})
		if err != nil {
			t.Fatal(err)
		}
		full, err := TuckerCtx(ctx, x, TuckerOptions{Rank: 2, HOOI: hooi, Sketch: SketchConfig{KeepFrac: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if !full.Sketched || full.SketchKept != x.NNZ() || full.SketchInput != x.NNZ() {
			t.Fatalf("hooi=%t: KeepFrac=1 should report a full keep, got %+v", hooi, full)
		}
		if plain.Sketched || plain.SketchKept != 0 || plain.SketchInput != 0 {
			t.Fatalf("hooi=%t: unsketched run carries sketch accounting: %+v", hooi, plain)
		}
		requireSameBits(t, fmt.Sprintf("hooi=%t: KeepFrac=1 vs plain", hooi), asResult(full), asResult(plain))
	}
}

// asResult presents a Tucker decomposition to requireSameBits.
func asResult(r *TuckerResult) *core.Result {
	return &core.Result{Core: r.Decomposition.Core, Factors: r.Decomposition.Factors}
}

// TestRunSketchBitStableAcrossParallel: the sketch, its accounting and the
// decomposition of it are one set of bits at any Parallel, and a Seed of 0
// is seed 1.
func TestRunSketchBitStableAcrossParallel(t *testing.T) {
	defer parallel.SetFanoutCap(parallel.SetFanoutCap(8))
	x := facadeTestTensor()
	run := func(parallel int, seed int64) *TuckerResult {
		res, err := TuckerCtx(context.Background(), x, TuckerOptions{Rank: 2, Sketch: SketchConfig{KeepFrac: 0.5, Seed: seed}, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1, 0)
	if serial.SketchKept <= 0 || serial.SketchKept >= x.NNZ() {
		t.Fatalf("KeepFrac 0.5 kept %d of %d cells", serial.SketchKept, x.NNZ())
	}
	for _, p := range []int{2, 3, 8} {
		got := run(p, 1)
		if got.SketchKept != serial.SketchKept {
			t.Fatalf("Parallel=%d: sketch kept %d cells, serial %d", p, got.SketchKept, serial.SketchKept)
		}
		requireSameBits(t, fmt.Sprintf("sketched, Parallel=%d vs 1", p), asResult(got), asResult(serial))
	}
	if other := run(1, 2); slices.Equal(other.Decomposition.Core.Data, serial.Decomposition.Core.Data) {
		t.Fatal("Sketch.Seed does not reach the sketch")
	}
}

func TestRunSketchValidation(t *testing.T) {
	for _, frac := range []float64{1.5, -0.1, math.NaN()} {
		_, err := TuckerCtx(context.Background(), facadeTestTensor(), TuckerOptions{Sketch: SketchConfig{KeepFrac: frac}})
		if err == nil || !strings.Contains(err.Error(), "Sketch") {
			t.Fatalf("KeepFrac %v: want an error naming the Sketch config, got %v", frac, err)
		}
	}
}

func TestConfigFingerprint(t *testing.T) {
	base := Config{System: SystemLorenz, Resolution: 6, Rank: 3}
	if got, again := base.Fingerprint(), base.Fingerprint(); got != again {
		t.Fatalf("fingerprint unstable: %q vs %q", got, again)
	}
	// Defaults collapse: an explicit default equals the zero-field form.
	explicit := Config{System: SystemLorenz, Resolution: 6, Rank: 3, Method: MethodSELECT, Seed: 1, Pivot: "t"}
	if base.Fingerprint() != explicit.Fingerprint() {
		t.Fatalf("normalized defaults differ:\n%q\n%q", base.Fingerprint(), explicit.Fingerprint())
	}
	// Parallel is excluded (bit-identical by contract).
	par := base
	par.Parallel = 7
	if base.Fingerprint() != par.Fingerprint() {
		t.Fatal("Parallel changed the fingerprint")
	}
	// Distributed.Workers is excluded at fixed Shards; Shards is included.
	d2 := base
	d2.Distributed = &DistributedConfig{Workers: 2, Shards: 4}
	d3 := base
	d3.Distributed = &DistributedConfig{Workers: 3, Shards: 4}
	if d2.Fingerprint() != d3.Fingerprint() {
		t.Fatal("Distributed.Workers changed the fingerprint at fixed Shards")
	}
	dOther := base
	dOther.Distributed = &DistributedConfig{Workers: 2, Shards: 8}
	if d2.Fingerprint() == dOther.Fingerprint() {
		t.Fatal("Distributed.Shards did not change the fingerprint")
	}
	// Decomposition-shaping fields are included.
	for name, mut := range map[string]func(*Config){
		"Rank":     func(c *Config) { c.Rank = 5 },
		"Method":   func(c *Config) { c.Method = MethodAVG },
		"ZeroJoin": func(c *Config) { c.ZeroJoin = true },
		"Seed":     func(c *Config) { c.Seed = 9 },
		"Workers":  func(c *Config) { c.Workers = 2 },
	} {
		c := base
		mut(&c)
		if c.Fingerprint() == base.Fingerprint() {
			t.Fatalf("%s did not change the fingerprint", name)
		}
	}
	if !strings.Contains(base.Fingerprint(), "|full-v2|") {
		t.Fatalf("fingerprint missing version marker: %q", base.Fingerprint())
	}
}
