package partition_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/tensor"
)

// referenceSub is the sub-ensemble assembly as it was before the flat
// request grid — requested cells grouped by simulation key in a map, one
// subIdx per cell, per-cell Append in sorted-key order — kept as the
// layout reference. simulate returns a simulation's cells, nil when it
// failed. A non-finite requested cell is left out and counted in
// quarantined.
func referenceSub(space *ensemble.Space, pivots, free []int, pivotConfigs, freeConfigs [][]int, simulate func(idx []int) []float64) (out *tensor.Sparse, quarantined int) {
	modes := append(append([]int(nil), pivots...), free...)
	shape := space.Shape()
	subShape := make(tensor.Shape, len(modes))
	for i, m := range modes {
		subShape[i] = shape[m]
	}
	out = tensor.NewSparse(subShape)

	nParams := space.NumParams()
	timeMode := space.TimeMode()
	type cellReq struct {
		subIdx []int
		tIdx   int
	}
	bySim := make(map[int][]cellReq)
	simIdxOf := make(map[int][]int)
	full := make([]int, space.Order())
	for _, pc := range pivotConfigs {
		for _, fc := range freeConfigs {
			for m := 0; m < nParams; m++ {
				full[m] = space.DefaultIndex()
			}
			full[timeMode] = space.TimeSamples / 2
			for i, m := range pivots {
				full[m] = pc[i]
			}
			for i, m := range free {
				full[m] = fc[i]
			}
			simKey := 0
			for m := 0; m < nParams; m++ {
				simKey = simKey*space.Res + full[m]
			}
			if _, ok := simIdxOf[simKey]; !ok {
				simIdxOf[simKey] = append([]int(nil), full[:nParams]...)
			}
			subIdx := make([]int, len(modes))
			for i, m := range modes {
				subIdx[i] = full[m]
			}
			bySim[simKey] = append(bySim[simKey], cellReq{subIdx: subIdx, tIdx: full[timeMode]})
		}
	}
	keys := make([]int, 0, len(bySim))
	for k := range bySim {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		traj := simulate(simIdxOf[k])
		if traj == nil {
			continue
		}
		for _, req := range bySim[k] {
			if v := traj[req.tIdx]; math.IsNaN(v) || math.IsInf(v, 0) {
				quarantined++
			} else {
				out.Append(req.subIdx, v)
			}
		}
	}
	return out, quarantined
}

// checkLayout fails unless both sub-tensors of res equal the reference
// assembly over the same sampled configurations, index for index and
// value bit for value bit (reflect.DeepEqual on []float64 would call
// NaN != NaN, but quarantine leaves none stored), and each quarantined
// exactly the reference's non-finite requested cells.
func checkLayout(t *testing.T, label string, res *partition.Result, simulate func(idx []int) []float64) {
	t.Helper()
	for i, sub := range []*partition.SubEnsemble{res.Sub1, res.Sub2} {
		free, freeConfigs := res.Config.Free1, res.Free1Configs
		if i == 1 {
			free, freeConfigs = res.Config.Free2, res.Free2Configs
		}
		want, quarantined := referenceSub(res.Space, res.Config.Pivots, free, res.PivotConfigs, freeConfigs, simulate)
		if !reflect.DeepEqual(sub.Tensor.Idx, want.Idx) || !reflect.DeepEqual(sub.Tensor.Vals, want.Vals) {
			t.Fatalf("%s: sub%d layout differs from the reference assembly (%d vs %d cells)", label, i+1, sub.Tensor.NNZ(), want.NNZ())
		}
		if got := sub.Stats.QuarantinedCells; got != quarantined {
			t.Fatalf("%s: sub%d quarantined %d cells, reference %d", label, i+1, got, quarantined)
		}
		if cap(sub.Tensor.Vals) != len(sub.Tensor.Vals)+sub.Stats.QuarantinedCells {
			t.Fatalf("%s: sub%d holds %d cells (+%d quarantined) in capacity %d; assembly must size the tensor exactly",
				label, i+1, len(sub.Tensor.Vals), sub.Stats.QuarantinedCells, cap(sub.Tensor.Vals))
		}
	}
}

// simCells simulates one parameter combination of a fault-free space.
func simCells(space *ensemble.Space) func(idx []int) []float64 {
	return func(idx []int) []float64 {
		cells, err := space.SimCellsCtx(context.Background(), idx)
		if err != nil {
			panic(err)
		}
		return cells
	}
}

// layoutConfigs covers the shapes the request grid must group correctly:
// the time mode as the pivot (many pivot configurations per simulation),
// a parameter pivot (time on a free axis), two pivots interleaved with the
// free modes' key digits, and sampled sub-grids in random order.
func layoutConfigs(space *ensemble.Space) map[string]partition.Config {
	tm := space.TimeMode()
	sampled := partition.DefaultConfig(space.Order(), tm, [][2]int{{0, 2}, {1, 3}})
	sampled.PivotFrac, sampled.FreeFrac = 0.6, 0.5
	return map[string]partition.Config{
		"time-pivot":  partition.DefaultConfig(space.Order(), tm, [][2]int{{0, 2}, {1, 3}}),
		"param-pivot": partition.DefaultConfig(space.Order(), 1, nil),
		"two-pivots":  {Pivots: []int{tm, 1}, Free1: []int{0, 3}, Free2: []int{2}, PivotFrac: 1, FreeFrac: 0.7},
		"sampled":     sampled,
	}
}

// TestGenerateLayoutMatchesReferenceAcrossWorkers: the fan-out simulates
// pairs of pending keys, so a worker count that splits the pairs unevenly
// (3) must give the same bytes as 1, 2 and 8.
func TestGenerateLayoutMatchesReferenceAcrossWorkers(t *testing.T) {
	defer parallel.SetFanoutCap(parallel.SetFanoutCap(8)) // real goroutines on small machines
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 6)
	for name, cfg := range layoutConfigs(space) {
		for _, workers := range []int{1, 2, 3, 8} {
			res, err := partition.GenerateCtx(context.Background(), space, cfg, newRand(31), partition.SimOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkLayout(t, fmt.Sprintf("%s workers=%d", name, workers), res, simCells(space))
		}
	}
}

func TestGenerateLayoutMatchesReferenceAfterResume(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	space := ensemble.NewSpace(dynsys.NewLorenz(), 5, 6)
	cfg := layoutConfigs(space)["sampled"]
	// Campaign 1 is cancelled part-way and leaves a checkpoint behind.
	ctx, cancel := context.WithCancel(context.Background())
	sims := 0
	inj := faults.New(faults.Config{Seed: 1, Hook: func() {
		if sims++; sims == 7 {
			cancel()
		}
	}})
	_, err = partition.GenerateCtx(ctx, space, cfg, newRand(32), partition.SimOptions{
		Workers:    1,
		Faults:     inj,
		Checkpoint: &ensemble.Checkpoint{Store: st, Fingerprint: "layout", Every: 1},
	})
	cancel()
	if err == nil {
		t.Fatal("campaign 1 was not cancelled")
	}
	res, err := partition.GenerateCtx(context.Background(), space, cfg, newRand(32), partition.SimOptions{
		Workers:    2,
		Checkpoint: &ensemble.Checkpoint{Store: st, Fingerprint: "layout", Every: 4, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RestoredSims == 0 || res.Stats.ExecutedSims == 0 {
		t.Fatalf("resume drill is vacuous: %+v", res.Stats)
	}
	checkLayout(t, "resumed", res, simCells(space))
}

// TestGenerateLayoutMatchesReferenceAfterSparseResume: a checkpoint that
// restores every third key leaves pending keys with gaps between them, so
// the fan-out's units of dynsys.Lanes keys straddle restored keys, and a
// pending count that is no multiple of dynsys.Lanes, so the last unit is a
// tail of 1 to 3 keys; the assembly must not notice.
func TestGenerateLayoutMatchesReferenceAfterSparseResume(t *testing.T) {
	defer parallel.SetFanoutCap(parallel.SetFanoutCap(8))
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 6)
	cfg := layoutConfigs(space)["time-pivot"]
	for _, workers := range []int{1, 3} {
		// A complete campaign writes every key; all but every third one
		// (in key order, starting at the second) are then dropped. Key
		// order is the fan-out's order, so pending[name] lists each
		// pending key's position among all keys, unit by unit.
		ckpt := ensemble.Checkpoint{Store: st, Fingerprint: "thirds", Every: 1 << 20}
		if _, err := partition.GenerateCtx(context.Background(), space, cfg, newRand(35), partition.SimOptions{Workers: 1, Checkpoint: &ckpt}); err != nil {
			t.Fatal(err)
		}
		pending := map[string][]int{}
		for _, name := range []string{"sub1-sims", "sub2-sims"} {
			fp, sims, err := st.LoadSimSet(name)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]int, 0, len(sims))
			for k := range sims {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for i, k := range keys {
				if i%3 != 1 {
					delete(sims, k)
					pending[name] = append(pending[name], i)
				}
			}
			if err := st.SaveSimSet(name, fp, sims); err != nil {
				t.Fatal(err)
			}
		}
		ckpt.Resume = true
		res, err := partition.GenerateCtx(context.Background(), space, cfg, newRand(35), partition.SimOptions{Workers: workers, Checkpoint: &ckpt})
		if err != nil {
			t.Fatal(err)
		}
		straddles, tail := false, false
		for name, sub := range map[string]*partition.SubEnsemble{"sub1-sims": res.Sub1, "sub2-sims": res.Sub2} {
			pos := pending[name]
			if sub.Stats.RestoredSims == 0 || sub.Stats.ExecutedSims != len(pos) || len(pos) < dynsys.Lanes {
				t.Fatalf("sparse resume drill is vacuous: %+v, %d keys pending", sub.Stats, len(pos))
			}
			for u := 0; u+dynsys.Lanes <= len(pos); u += dynsys.Lanes {
				straddles = straddles || pos[u+dynsys.Lanes-1]-pos[u] >= dynsys.Lanes
			}
			tail = tail || len(pos)%dynsys.Lanes != 0
		}
		if !straddles || !tail {
			t.Fatalf("no unit straddles a restored key (%v) or no sub-campaign ends on a tail (%v): %v", straddles, tail, pending)
		}
		checkLayout(t, fmt.Sprintf("sparse resume workers=%d", workers), res, simCells(space))
	}
}

func TestGenerateLayoutMatchesReferenceUnderFaults(t *testing.T) {
	defer parallel.SetFanoutCap(parallel.SetFanoutCap(8))
	fcfg := faults.Config{Seed: 33, TransientRate: 0.3, DivergentRate: 0.2, PanicRate: 0.15}
	space := ensemble.NewSpace(dynsys.NewSEIR(), 5, 6)
	cfg := layoutConfigs(space)["two-pivots"]
	for _, workers := range []int{1, 2, 8} {
		inj := faults.New(fcfg)
		res, err := partition.GenerateCtx(context.Background(), space, cfg, newRand(34), partition.SimOptions{Workers: workers, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		is := inj.Stats()
		if is.TransientSims == 0 || is.DivergentSims == 0 || is.PanickedSims == 0 ||
			res.Stats.RetriedSims == 0 || res.Stats.QuarantinedCells == 0 || res.Stats.FailedSims == 0 {
			t.Fatalf("fault drill is vacuous: injected %+v, handled %+v", is, res.Stats)
		}
		// The reference replays the same fates through a fresh injector
		// (decisions are keyed by seed and parameter values) and
		// faults.Run, one simulation at a time, and takes a surviving
		// simulation's cells from the scalar entry: NaN where it diverged.
		ref := faults.New(fcfg)
		simulate := func(idx []int) []float64 {
			ctx := context.Background()
			vals := make([]float64, len(idx))
			for k, p := range space.Sys.Params() {
				vals[k] = p.Value(idx[k], space.Res)
			}
			var diverge bool
			if _, err := faults.Run(ctx, func() (err error) {
				diverge, err = ref.Inject(ctx, vals)
				return err
			}); err != nil {
				return nil
			}
			cells := simCells(space)(idx)
			if diverge {
				for c := range cells {
					cells[c] = math.NaN()
				}
			}
			return cells
		}
		checkLayout(t, fmt.Sprintf("faulted workers=%d", workers), res, simulate)
	}
}

// lateDivergent wraps a system so that some trajectories turn non-finite
// part-way: a simulation whose first parameter lies above the middle of
// its range reads NaN at even stamps from stamp from on and +Inf at odd
// ones. The reference (40 % into every range) stays finite. sims counts
// the divergent trajectories simulated.
type lateDivergent struct {
	dynsys.System
	from int
	sims *atomic.Int64
}

func (s lateDivergent) Trajectory(vals []float64, n int) [][]float64 {
	out := s.System.Trajectory(vals, n)
	if p := s.Params()[0]; vals[0] > (p.Min+p.Max)/2 {
		s.sims.Add(1)
		for t := s.from; t < n; t++ {
			for i := range out[t] {
				out[t][i] = math.NaN()
				if t%2 == 1 {
					out[t][i] = math.Inf(1)
				}
			}
		}
	}
	return out
}

// TestQuarantineCountsOnlyRequestedCells: the divergence quarantine sits
// where a simulation's cells are stored, so a trajectory that turns
// non-finite only after some stamp costs exactly its requested non-finite
// cells — not the stamps no pivot or free configuration asked for. Two
// partitions leave stamps unrequested: the time pivot at P < 1, and a
// parameter pivot with time a free mode at E < 1.
func TestQuarantineCountsOnlyRequestedCells(t *testing.T) {
	const res, stamps, from = 4, 8, 3
	var diverged atomic.Int64
	space := ensemble.NewSpace(lateDivergent{System: probe{}, from: from, sims: &diverged}, res, stamps)
	timePivot := partition.DefaultConfig(space.Order(), space.TimeMode(), nil)
	timePivot.PivotFrac = 0.5
	paramPivot := partition.DefaultConfig(space.Order(), 0, nil)
	paramPivot.FreeFrac = 0.5
	for name, cfg := range map[string]partition.Config{"time pivot P=0.5": timePivot, "param pivot E=0.5": paramPivot} {
		diverged.Store(0)
		res, err := partition.GenerateCtx(context.Background(), space, cfg, newRand(39), partition.SimOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Every divergent fibre holds stamps-from non-finite stamps; a count
		// taken per fibre, not per requested cell, would read that many.
		q, fibres := res.Stats.QuarantinedCells, int(diverged.Load())*(stamps-from)
		checkLayout(t, name, res, simCells(space))
		if q == 0 || q >= fibres {
			t.Fatalf("%s: %d quarantined cells of %d non-finite stamps simulated; the drill needs 0 < quarantined < stamps", name, q, fibres)
		}
	}
}

// TestEachSimulationIsOneTimeRun pins the layout the sparse Gram kernel
// reads without sorting: in storage order, each simulation's cells are one
// contiguous run whose consecutive cells differ in the time index alone,
// never repeating one. A sub-tensor without the time mode holds one cell
// per simulation. Covered: the time pivot, a parameter pivot, two pivots,
// P and E below 1, and partitions that lost simulations and cells.
func TestEachSimulationIsOneTimeRun(t *testing.T) {
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 6)
	cases := map[string]*partition.Result{}
	for name, cfg := range layoutConfigs(space) {
		res, err := partition.GenerateCtx(context.Background(), space, cfg, newRand(36), partition.SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = res
	}
	fcfg := faults.Config{Seed: 37, DivergentRate: 0.2, PanicRate: 0.15}
	seir := ensemble.NewSpace(dynsys.NewSEIR(), 5, 6)
	for _, name := range []string{"time-pivot", "two-pivots"} {
		res, err := partition.GenerateCtx(context.Background(), seir, layoutConfigs(seir)[name], newRand(38), partition.SimOptions{Faults: faults.New(fcfg)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.QuarantinedCells == 0 || res.Stats.FailedSims == 0 {
			t.Fatalf("faulted %s is vacuous: %+v", name, res.Stats)
		}
		cases["faulted "+name] = res
	}
	for name, res := range cases {
		for i, sub := range []*partition.SubEnsemble{res.Sub1, res.Sub2} {
			tm := slices.Index(sub.Modes, res.Space.TimeMode())
			checkTimeRuns(t, fmt.Sprintf("%s sub%d", name, i+1), sub.Tensor, tm)
		}
	}
}

// checkTimeRuns fails unless x's cells are runs of one simulation each
// along sub-tensor mode tm (-1: x has no time mode, and runs are one cell).
func checkTimeRuns(t *testing.T, label string, x *tensor.Sparse, tm int) {
	t.Helper()
	o := x.Order()
	simOf := func(e int) string {
		key := slices.Clone(x.Idx[e*o : (e+1)*o])
		if tm >= 0 {
			key[tm] = -1
		}
		return fmt.Sprint(key)
	}
	done := map[string]bool{}
	times := map[int]bool{}
	for e := 0; e < x.NNZ(); e++ {
		sim := simOf(e)
		if e == 0 || sim != simOf(e-1) {
			if done[sim] {
				t.Fatalf("%s: cell %d resumes simulation %s after another's cells", label, e, sim)
			}
			done[sim] = true
			clear(times)
		} else if tm < 0 {
			t.Fatalf("%s: cell %d repeats simulation %s in a sub-tensor without time", label, e, sim)
		}
		if tm >= 0 {
			if tt := x.Idx[e*o+tm]; times[tt] {
				t.Fatalf("%s: cell %d repeats time index %d of simulation %s", label, e, tt, sim)
			} else {
				times[tt] = true
			}
		}
	}
}
