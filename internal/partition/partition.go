// Package partition implements the paper's Pivoted/Fixed (PF-)partitioning
// of a simulation parameter space (Section V-B): the N tensor modes are
// split into k shared pivot modes and two halves of free modes; each
// sub-system varies its pivot and free modes while fixing the other half's
// modes at default "fixing constants". Sub-ensembles are generated with
// common pivot configurations so they can later be stitched (package
// stitch) and jointly decomposed (package core).
package partition

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ensemble"
	"repro/internal/tensor"
)

// Config selects the pivot and free modes and the sub-ensemble densities.
type Config struct {
	// Pivots lists the original tensor modes shared by both sub-systems.
	Pivots []int
	// Free1 and Free2 list the original modes free in sub-system 1 and 2.
	// Together with Pivots they must cover every mode exactly once.
	Free1, Free2 []int
	// PivotFrac is the paper's P knob: the fraction of pivot
	// configurations included (1 = all).
	PivotFrac float64
	// FreeFrac is the paper's E knob: the fraction of free-mode
	// configurations included per sub-system (1 = all).
	FreeFrac float64
}

// Validate checks that the configuration covers all modes exactly once and
// that the density knobs are in (0, 1].
func (c Config) Validate(order int) error {
	seen := make([]bool, order)
	mark := func(modes []int, kind string) error {
		for _, m := range modes {
			if m < 0 || m >= order {
				return fmt.Errorf("partition: %s mode %d out of range [0, %d)", kind, m, order)
			}
			if seen[m] {
				return fmt.Errorf("partition: mode %d assigned twice", m)
			}
			seen[m] = true
		}
		return nil
	}
	if err := mark(c.Pivots, "pivot"); err != nil {
		return err
	}
	if err := mark(c.Free1, "free1"); err != nil {
		return err
	}
	if err := mark(c.Free2, "free2"); err != nil {
		return err
	}
	for m, ok := range seen {
		if !ok {
			return fmt.Errorf("partition: mode %d not assigned", m)
		}
	}
	if len(c.Pivots) == 0 {
		return fmt.Errorf("partition: at least one pivot mode required")
	}
	if len(c.Free1) == 0 || len(c.Free2) == 0 {
		return fmt.Errorf("partition: both sub-systems need free modes")
	}
	if !(c.PivotFrac > 0 && c.PivotFrac <= 1) { // NaN too
		return fmt.Errorf("partition: PivotFrac %v outside (0, 1]", c.PivotFrac)
	}
	if !(c.FreeFrac > 0 && c.FreeFrac <= 1) {
		return fmt.Errorf("partition: FreeFrac %v outside (0, 1]", c.FreeFrac)
	}
	return nil
}

// DefaultConfig returns the PF-partitioning used throughout the paper's
// evaluation: a single pivot mode with the remaining modes split into two
// halves. pairs optionally lists parameter modes that must land in the
// same half (for the double pendulum, {φ₁, m₁} and {φ₂, m₂}: "free
// parameters of the same pendulum are kept in the same sub-system",
// Table VIII). Halves are filled greedily, largest group first.
func DefaultConfig(order, pivot int, pairs [][2]int) Config {
	remaining := make([]int, 0, order-1)
	for m := 0; m < order; m++ {
		if m != pivot {
			remaining = append(remaining, m)
		}
	}
	inRemaining := func(m int) bool {
		for _, r := range remaining {
			if r == m {
				return true
			}
		}
		return false
	}
	// Build groups: intact pairs stay together; everything else is a
	// singleton.
	var groups [][]int
	used := make(map[int]bool)
	for _, p := range pairs {
		if inRemaining(p[0]) && inRemaining(p[1]) && !used[p[0]] && !used[p[1]] {
			groups = append(groups, []int{p[0], p[1]})
			used[p[0]], used[p[1]] = true, true
		}
	}
	for _, m := range remaining {
		if !used[m] {
			groups = append(groups, []int{m})
		}
	}
	sort.SliceStable(groups, func(a, b int) bool { return len(groups[a]) > len(groups[b]) })
	var h1, h2 []int
	for _, g := range groups {
		if len(h1) <= len(h2) {
			h1 = append(h1, g...)
		} else {
			h2 = append(h2, g...)
		}
	}
	sort.Ints(h1)
	sort.Ints(h2)
	return Config{Pivots: []int{pivot}, Free1: h1, Free2: h2, PivotFrac: 1, FreeFrac: 1}
}

// SubEnsemble is one PF-partitioned sub-system's simulation ensemble: a
// low-order sparse tensor over the sub-system's modes, pivot modes first.
type SubEnsemble struct {
	// Modes maps sub-tensor mode position to the original tensor mode:
	// pivots first (in Config order), then free modes.
	Modes []int
	// NumPivots is the number of leading pivot modes.
	NumPivots int
	// Tensor holds the sub-ensemble, shaped by the original mode sizes.
	Tensor *tensor.Sparse
	// NumSims is the number of simulation runs this sub-ensemble cost.
	NumSims int
	// Stats accounts for executed/restored/retried/failed simulations and
	// quarantined cells of this sub-campaign.
	Stats ensemble.SimStats
}

// Result is a PF-partitioned, sampled pair of sub-ensembles.
type Result struct {
	Space  *ensemble.Space
	Config Config
	Sub1   *SubEnsemble
	Sub2   *SubEnsemble
	// PivotConfigs are the shared pivot-mode index combinations both
	// sub-ensembles were sampled at.
	PivotConfigs [][]int
	// Free1Configs and Free2Configs are the sampled free-mode index
	// combinations for each sub-system.
	Free1Configs [][]int
	Free2Configs [][]int
	// NumSims is the total simulation budget spent across both
	// sub-ensembles.
	NumSims int
	// Stats aggregates both sub-campaigns' fault-tolerance accounting.
	Stats ensemble.SimStats
}

// JoinCells is the stored-cell count of the JE-stitched join, counted per
// pivot group rather than read off a tensor: a group holding n₁ cells on
// side 1 and n₂ on side 2 joins to n₁·n₂ matched pairs, plus for the
// zero-join n₁·(F₂−n₂) + n₂·(F₁−n₁) extensions over the full free grids F.
// On a partition that lost no simulation that is the paper's density
// formula, P·E₁·E₂ (+ P·(E₁·(F₂−E₂) + E₂·(F₁−E₁))).
func (r *Result) JoinCells(zeroJoin bool) int {
	shape := r.Space.Shape()
	grid := func(modes []int) int {
		n := 1
		for _, m := range modes {
			n *= shape[m]
		}
		return n
	}
	// Pivots lead each sub-tensor's modes, so both sides share the key.
	var n [2][]int
	for si, x := range []*tensor.Sparse{r.Sub1.Tensor, r.Sub2.Tensor} {
		n[si] = make([]int, grid(r.Config.Pivots))
		for e := range x.Vals {
			key := 0
			for i, m := range r.Config.Pivots {
				key = key*shape[m] + x.Idx[e*x.Order()+i]
			}
			n[si][key]++
		}
	}
	cells, f1, f2 := 0, grid(r.Config.Free1), grid(r.Config.Free2)
	for p, n1 := range n[0] {
		n2 := n[1][p]
		cells += n1 * n2
		if zeroJoin {
			cells += n1*(f2-n2) + n2*(f1-n1)
		}
	}
	return cells
}

// allConfigs enumerates every index combination over the given original
// modes of the space, in C order (last mode fastest), carved out of one
// backing array.
func allConfigs(space *ensemble.Space, modes []int) [][]int {
	shape := space.Shape()
	total := 1
	for _, m := range modes {
		total *= shape[m]
	}
	n := len(modes)
	flat := make([]int, total*n)
	out := make([][]int, total)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n : (i+1)*n]
		for pos, rem := n-1, i; pos >= 0; pos-- {
			out[i][pos] = rem % shape[modes[pos]]
			rem /= shape[modes[pos]]
		}
	}
	return out
}

// sampleConfigs returns ceil(frac·len(all)) configurations: all of them
// when frac == 1, otherwise a uniform random subset (the paper samples
// sub-systems randomly to study worst-case behaviour).
func sampleConfigs(all [][]int, frac float64, rng *rand.Rand) [][]int {
	if frac >= 1 {
		return all
	}
	n := int(frac*float64(len(all)) + 0.999999)
	if n < 1 {
		n = 1
	}
	if n >= len(all) {
		return all
	}
	perm := rng.Perm(len(all))
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		out[i] = all[perm[i]]
	}
	return out
}

// SimOptions configures the simulation fan-out of a PF-partitioned
// campaign. It is ensemble.SimulateCtx's options type; the name stays
// because GenerateCtx's callers (cmd/m2tdperf among them) spell it so.
type SimOptions = ensemble.SimOptions

// GenerateCtx PF-partitions the space per cfg and simulates both
// sub-ensembles, with cooperative cancellation, per-simulation retry
// (faults.Run: a transient failure is retried at once, three attempts in all),
// divergence quarantine, and optional checkpoint/resume. Both sub-systems
// share the same sampled pivot configurations; free configurations are
// sampled independently. The rng consumption order does not depend on
// opts, so a resumed campaign samples exactly the same configurations as
// the interrupted one (given the same seed) and reassembles a bit-identical
// pair of sub-tensors.
func GenerateCtx(ctx context.Context, space *ensemble.Space, cfg Config, rng *rand.Rand, opts SimOptions) (*Result, error) {
	if err := cfg.Validate(space.Order()); err != nil {
		return nil, err
	}
	pivotConfigs := sampleConfigs(allConfigs(space, cfg.Pivots), cfg.PivotFrac, rng)
	free1Configs := sampleConfigs(allConfigs(space, cfg.Free1), cfg.FreeFrac, rng)
	free2Configs := sampleConfigs(allConfigs(space, cfg.Free2), cfg.FreeFrac, rng)

	// Stage-span accounting: the sampled configuration counts depend only
	// on the space, cfg and rng seed, so they are deterministic counters.
	opts.Span.Add("pivot_configs", int64(len(pivotConfigs)))
	opts.Span.Add("free1_configs", int64(len(free1Configs)))
	opts.Span.Add("free2_configs", int64(len(free2Configs)))

	sub1, err := buildSub(ctx, space, cfg.Pivots, cfg.Free1, pivotConfigs, free1Configs, opts, "sub1")
	if err != nil {
		return nil, err
	}
	sub2, err := buildSub(ctx, space, cfg.Pivots, cfg.Free2, pivotConfigs, free2Configs, opts, "sub2")
	if err != nil {
		return nil, err
	}

	res := &Result{
		Space:        space,
		Config:       cfg,
		Sub1:         sub1,
		Sub2:         sub2,
		PivotConfigs: pivotConfigs,
		Free1Configs: free1Configs,
		Free2Configs: free2Configs,
		NumSims:      sub1.NumSims + sub2.NumSims,
	}
	res.Stats.Add(sub1.Stats)
	res.Stats.Add(sub2.Stats)
	return res, nil
}

// buildSub simulates one sub-system over the selected pivot × free
// configurations. Modes outside pivot∪free are fixed at the space default
// (parameters at the grid midpoint, time at the midpoint stamp). Each
// distinct parameter combination is simulated once; all requested cells
// are then read off its trajectory.
//
// Fault tolerance: failed simulations contribute no cells (they lower the
// effective density instead of poisoning the tensor), and a requested cell
// whose value a divergent-but-completed run left non-finite is dropped and
// counted (ensemble.SimStats.Keep).
// Assembly walks simulations in ascending key order regardless of which
// were restored vs executed, so a resumed campaign's sub-tensor is laid
// out bit-identically to an uninterrupted one.
func buildSub(ctx context.Context, space *ensemble.Space, pivots, free []int, pivotConfigs, freeConfigs [][]int, opts SimOptions, ckptName string) (*SubEnsemble, error) {
	span := opts.Span.Start(ckptName)
	defer span.WithVitals(nil)()
	modes := append(append([]int(nil), pivots...), free...)
	shape := space.Shape()
	subShape := make(tensor.Shape, len(modes))
	for i, m := range modes {
		subShape[i] = shape[m]
	}
	sub := &SubEnsemble{
		Modes:     modes,
		NumPivots: len(pivots),
		Tensor:    tensor.NewSparse(subShape),
	}

	sims := requestedSims(space, pivots, free, pivotConfigs, freeConfigs)
	cells, stats, err := space.SimulateCtx(ctx, ckptName, len(sims), func(i int) int { return sims[i].key }, opts)
	if err != nil {
		return nil, fmt.Errorf("partition: %s simulation fan-out: %w", ckptName, err)
	}
	emit(sub.Tensor, sims, cells, space.TimeSamples/2, &stats)
	stats.Record(span, len(sims), sub.Tensor)
	sub.NumSims = len(sims)
	sub.Stats = stats
	return sub, nil
}

// axisEntry is one pivot or free configuration of a request grid: its mode
// indices, what they move the simulation key by (parameter modes only —
// time shares a simulation), and its time index (-1: not on this axis).
type axisEntry struct {
	config        []int
	contrib, time int
}

// axisRuns orders the configurations over modes by contribution (stably:
// sampling order survives within a simulation) and splits them into runs
// of equal contribution. weight is each parameter mode's place value in
// the key; def the index the key's constant part assumes.
func axisRuns(modes []int, configs [][]int, weight []int, def int) [][]axisEntry {
	axis := make([]axisEntry, len(configs))
	for i, c := range configs {
		axis[i] = axisEntry{config: c, time: -1}
		for pos, m := range modes {
			if m < len(weight) {
				axis[i].contrib += (c[pos] - def) * weight[m]
			} else { // the time mode follows the parameter modes
				axis[i].time = c[pos]
			}
		}
	}
	sort.SliceStable(axis, func(x, y int) bool { return axis[x].contrib < axis[y].contrib })
	var runs [][]axisEntry
	for lo, hi := 0, 1; hi <= len(axis); hi++ {
		if hi == len(axis) || axis[hi].contrib != axis[lo].contrib {
			runs = append(runs, axis[lo:hi])
			lo = hi
		}
	}
	return runs
}

// simRequest is one distinct simulation of a sub-system and the cells
// requested of it: its pivot configurations crossed with its free ones.
type simRequest struct {
	key           int
	pivots, frees []axisEntry
}

// requestedSims is the flat enumeration of a sub-system's requested cells,
// grouped by simulation and sorted by key (the deterministic tensor
// layout). A key is the C-order linear index of the parameter quadruple:
// the all-default key plus one contribution per axis, so requests group
// per axis with no per-cell bookkeeping.
func requestedSims(space *ensemble.Space, pivots, free []int, pivotConfigs, freeConfigs [][]int) []simRequest {
	def := space.DefaultIndex()
	weight := make([]int, space.NumParams())
	allDefault := 0
	for m, w := len(weight)-1, 1; m >= 0; m, w = m-1, w*space.Res {
		weight[m] = w
		allDefault += def * w
	}
	var sims []simRequest
	freeRuns := axisRuns(free, freeConfigs, weight, def)
	for _, p := range axisRuns(pivots, pivotConfigs, weight, def) {
		for _, f := range freeRuns {
			sims = append(sims, simRequest{key: allDefault + p[0].contrib + f[0].contrib, pivots: p, frees: f})
		}
	}
	sort.Slice(sims, func(x, y int) bool { return sims[x].key < sims[y].key })
	return sims
}

// emit sizes t for exactly the requested cells of the completed
// simulations, then appends them: simulations in key order, each one's
// cells pivot-major. cells[i] is nil when simulation i failed (its cells
// are absent by design); with time on neither axis requests read defTime.
// A requested cell that stats.Keep refuses is left out.
func emit(t *tensor.Sparse, sims []simRequest, cells [][]float64, defTime int, stats *ensemble.SimStats) {
	total, largest := 0, 0
	for i, sim := range sims {
		if cells[i] != nil {
			n := len(sim.pivots) * len(sim.frees)
			total, largest = total+n, max(largest, n)
		}
	}
	t.Reserve(total)
	idx := make([]int, 0, largest*t.Order())
	vals := make([]float64, 0, largest)
	for i, sim := range sims {
		if cells[i] == nil {
			continue
		}
		idx, vals = idx[:0], vals[:0]
		for _, p := range sim.pivots {
			for _, f := range sim.frees {
				tIdx := max(p.time, f.time) // the time mode is on at most one axis
				if tIdx < 0 {
					tIdx = defTime
				}
				if v := cells[i][tIdx]; stats.Keep(v) {
					idx = append(append(idx, p.config...), f.config...)
					vals = append(vals, v)
				}
			}
		}
		t.AppendBlock(idx, vals)
	}
}
