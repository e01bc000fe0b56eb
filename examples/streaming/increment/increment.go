// Package increment provides streaming maintenance of an M2TD
// decomposition while a simulation ensemble grows — the natural extension
// of the paper's pipeline to incrementally allocated simulation budgets
// (its related-work Section II-A's "single-run replication", where
// simulations are added one at a time and the analysis is refreshed after
// each).
//
// The key observation is that every factor matrix in M2TD derives from a
// mode-n matricization Gram matrix X(n)·X(n)ᵀ, and appending one cell to a
// sub-tensor perturbs each mode's Gram by cross-terms with only the cells
// sharing that cell's matricization column. The tracker therefore keeps
// per-mode column indexes and applies exact O(column-size) Gram updates
// per appended cell; factors are re-extracted from the maintained Grams
// only when a decomposition is requested, and the core is projected from
// the current cells by the join-free kernel (core.ProjectShard,
// core.FactoredCore) without building the join tensor.
package increment

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/mat"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
)

// colEntry is one stored cell of a matricization column.
type colEntry struct {
	row int
	val float64
}

// subState tracks one sub-ensemble's cells, per-mode Grams, and per-mode
// column indexes.
type subState struct {
	modes   []int
	tensor  *tensor.Sparse
	grams   []*mat.Matrix
	columns []map[int][]colEntry // per mode: matricization column → cells
}

// Tracker incrementally maintains the state needed for M2TD
// decompositions of a growing PF-partitioned ensemble.
type Tracker struct {
	space *ensemble.Space
	cfg   partition.Config
	sub1  *subState
	sub2  *subState
}

// New creates a tracker from an existing PF-partitioned result, absorbing
// its current sub-ensembles through the incremental path.
func New(p *partition.Result) *Tracker {
	t := &Tracker{space: p.Space, cfg: p.Config}
	t.sub1 = newSubState(p.Sub1)
	t.sub2 = newSubState(p.Sub2)
	return t
}

func newSubState(sub *partition.SubEnsemble) *subState {
	order := sub.Tensor.Order()
	st := &subState{
		modes:   append([]int(nil), sub.Modes...),
		tensor:  tensor.NewSparse(sub.Tensor.Shape),
		grams:   make([]*mat.Matrix, order),
		columns: make([]map[int][]colEntry, order),
	}
	for n := 0; n < order; n++ {
		st.grams[n] = mat.New(sub.Tensor.Shape[n], sub.Tensor.Shape[n])
		st.columns[n] = make(map[int][]colEntry)
	}
	// Absorb existing cells via the incremental path so the invariant
	// grams[n] == ModeGramWorkers(tensor, n, 0) holds by construction.
	sub.Tensor.Each(func(idx []int, v float64) {
		st.append(idx, v)
	})
	return st
}

// append adds one cell and updates every mode's Gram with the exact
// cross-terms.
func (st *subState) append(idx []int, v float64) {
	shape := st.tensor.Shape
	for n := range st.grams {
		row := idx[n]
		col := shape.MatricizeColumn(n, idx)
		g := st.grams[n]
		for _, e := range st.columns[n][col] {
			g.Set(row, e.row, g.At(row, e.row)+v*e.val)
			g.Set(e.row, row, g.At(e.row, row)+v*e.val)
		}
		g.Set(row, row, g.At(row, row)+v*v)
		st.columns[n][col] = append(st.columns[n][col], colEntry{row: row, val: v})
	}
	st.tensor.Append(idx, v)
}

// AppendCell adds one simulation cell to sub-ensemble 1 or 2 (index in
// the sub-tensor's own mode order, pivots first). The per-mode Grams are
// updated incrementally. A non-finite value is refused: the kernels take
// finite values only.
func (t *Tracker) AppendCell(sub int, idx []int, v float64) error {
	st, err := t.state(sub)
	if err != nil {
		return err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("increment: value %v at %v is not finite", v, idx)
	}
	st.append(idx, v)
	return nil
}

// CellCounts returns the current cell counts of the two sub-ensembles.
func (t *Tracker) CellCounts() (int, int) {
	return t.sub1.tensor.NNZ(), t.sub2.tensor.NNZ()
}

func (t *Tracker) state(sub int) (*subState, error) {
	switch sub {
	case 1:
		return t.sub1, nil
	case 2:
		return t.sub2, nil
	}
	return nil, fmt.Errorf("increment: sub-ensemble %d (want 1 or 2)", sub)
}

// snapshot packages the current cells as a partition.Result: a cell
// appended at an index already stored adds to it, as it does in the Grams,
// and there are no configuration lists — appends outgrow them — so the
// join-free kernel takes every side's cκ from its cells' mask.
func (t *Tracker) snapshot() *partition.Result {
	k := len(t.cfg.Pivots)
	cells := func(st *subState) *tensor.Sparse {
		x := st.tensor.Clone()
		x.Dedup(tensor.SumDuplicates)
		return x
	}
	return &partition.Result{
		Space:  t.space,
		Config: t.cfg,
		Sub1: &partition.SubEnsemble{
			Modes:     t.sub1.modes,
			NumPivots: k,
			Tensor:    cells(t.sub1),
		},
		Sub2: &partition.SubEnsemble{
			Modes:     t.sub2.modes,
			NumPivots: k,
			Tensor:    cells(t.sub2),
		},
	}
}

// Decompose produces the current M2TD decomposition: pivot factors are
// fused from the incrementally maintained Grams (no cell re-scan), free
// factors come from the owning sub-ensemble's Grams, and the core is
// projected from the current cells without building the join.
func (t *Tracker) Decompose(opts core.Options) (*core.Result, error) {
	ranks, err := core.CheckedRanks(opts.Method, opts.Ranks, t.space.Shape())
	if err != nil {
		return nil, err
	}
	k := len(t.cfg.Pivots)

	factors := make([]*mat.Matrix, len(ranks))
	for i, m := range t.cfg.Pivots {
		r, g1, g2 := ranks[m], t.sub1.grams[i], t.sub2.grams[i]
		var u1, u2 *mat.Matrix
		if opts.Method != core.CONCAT {
			u1, u2 = mat.LeadingEigenvectors(g1, r), mat.LeadingEigenvectors(g2, r)
		}
		factors[m] = core.FusePivot(opts.Method, r, u1, g1, u2, g2)
	}
	for i, m := range t.cfg.Free1 {
		factors[m] = mat.LeadingEigenvectors(t.sub1.grams[k+i], ranks[m])
	}
	for i, m := range t.cfg.Free2 {
		factors[m] = mat.LeadingEigenvectors(t.sub2.grams[k+i], ranks[m])
	}

	p := t.snapshot()
	part := core.ProjectShard(stitch.NewSpec(p, opts.ZeroJoin), core.SampledOf(p), p.Sub1.Tensor, p.Sub2.Tensor, factors, 0, 1, opts.Workers)
	total := core.FactoredCore([]core.Partial{part}, opts.Span)
	return &core.Result{Factors: factors, Core: total.G}, nil
}
