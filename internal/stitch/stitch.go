// Package stitch implements JE-stitching (Section V-C): combining two
// PF-partitioned sub-ensembles into a single join tensor J over the full
// parameter space, by joining simulations that agree on the shared pivot
// configuration.
//
// There is one kernel, Spec.Shard. A Spec is the geometry of a partitioned
// pair — the full-space shape, which of its modes are pivots and which are
// each side's free modes, and the variant:
//
//   - join: for every pair of sub-ensemble cells with equal pivot indices,
//     J gets their average. With P pivot configurations and E free
//     configurations per side this yields P·E² cells — the "effective
//     density squaring" of Figure 6.
//   - zero-join: additionally, every sub-ensemble cell is joined against a
//     zero value over each free configuration the other side did not
//     sample under that pivot, contributing x/2 cells. At low sub-ensemble
//     density this boosts the effective density to roughly 2·P·E·F (F =
//     full free grid size per side) and, per Table V, the accuracy.
//
// Shard stitches the pivot groups whose key lands in one shard
// (key % shards). Join and ZeroJoin are that kernel at shard 0 of 1;
// D-M2TD's Phase 2 as the paper states it (Algorithm 6,
// core.DecomposeCtx at Options.Shards > 1) is the same kernel once per shard. Nothing
// stitches in order to decompose — core recovery projects the two
// sub-tensors (core.DecomposeFactored, which says who still builds J), and
// shards them by this package's Spec.PivotKey.
//
// The emission order is frozen, because every downstream floating-point
// sum — core recovery above all — inherits it: pivot groups by ascending
// pivot key; within a group each side's cells in lexicographic index order
// (storage order between duplicates); matched pairs first, side-1-major,
// then side 1's zero-join extensions walking side 2's unsampled free
// configurations lexicographically, then side 2's against side 1's. A
// pivot group present on one side only has no matched pairs and, under
// zero-join, one extension list; it takes its place in key order like any
// other. The output is sized exactly before the first cell is written and
// emitted by block template through tensor.Sparse.AppendBlock, so nothing
// is allocated per group or per cell and every index is range-checked.
package stitch

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/partition"
	"repro/internal/tensor"
)

// Spec describes the JE-stitch geometry of a PF-partitioned pair: the full
// space shape, which full-space modes are pivots and which are each side's
// free modes, and whether the join is a zero-join. It is a pure value
// (JSON-serializable: the distributed runtime ships it to workers),
// and every method on it is a pure function — the determinism contract's
// foundation.
type Spec struct {
	Shape    tensor.Shape `json:"shape"`
	Pivots   []int        `json:"pivots"`
	Free1    []int        `json:"free1"`
	Free2    []int        `json:"free2"`
	ZeroJoin bool         `json:"zero_join,omitempty"`
}

// NewSpec derives the spec for a partitioned pair.
func NewSpec(p *partition.Result, zeroJoin bool) Spec {
	return Spec{
		Shape:    p.Space.Shape(),
		Pivots:   p.Config.Pivots,
		Free1:    p.Config.Free1,
		Free2:    p.Config.Free2,
		ZeroJoin: zeroJoin,
	}
}

// Check reports whether the spec describes a sub-tensor pair of the given
// shapes: its three mode lists cover the full-space modes exactly once, and
// each side's shape is the full space's over the pivots, then over that
// side's free modes. Every pivot key of a checked pair is in range, so a
// spec that crossed a process boundary is checked before Shard — which
// panics on an out-of-shape pivot — sees it.
func (s Spec) Check(x1, x2 tensor.Shape) error {
	modes := partition.Config{Pivots: s.Pivots, Free1: s.Free1, Free2: s.Free2, PivotFrac: 1, FreeFrac: 1}
	if err := modes.Validate(len(s.Shape)); err != nil {
		return fmt.Errorf("stitch: spec over shape %v: %w", s.Shape, err)
	}
	for side, free := range [][]int{s.Free1, s.Free2} {
		got, want := []tensor.Shape{x1, x2}[side], make(tensor.Shape, 0, len(s.Pivots)+len(free))
		for _, m := range s.Pivots {
			want = append(want, s.Shape[m])
		}
		for _, m := range free {
			want = append(want, s.Shape[m])
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("stitch: sub-tensor %d has shape %v, the spec's is %v", side+1, got, want)
		}
	}
	return nil
}

// Join constructs the join tensor J in the original mode order by
// averaging every pair of sub-ensemble cells that agree on the pivot
// configuration (Section V-C.1).
func Join(p *partition.Result) *tensor.Sparse {
	return NewSpec(p, false).Shard(p.Sub1.Tensor, p.Sub2.Tensor, 0, 1)
}

// ZeroJoin constructs the zero-join tensor (Section V-C.2): matched pairs
// are averaged as in Join, and every cell is also averaged with an implicit
// zero over each unsampled free configuration of the other side.
func ZeroJoin(p *partition.Result) *tensor.Sparse {
	return NewSpec(p, true).Shard(p.Sub1.Tensor, p.Sub2.Tensor, 0, 1)
}

// PivotKey linearises a sub-local index's pivot coordinates — identical
// for both sub-tensors since pivots lead the mode order on each side.
// Keys are dense in [0, ∏ pivot sizes), so key % shards is a balanced,
// timing-independent shard assignment.
func (s Spec) PivotKey(idx []int) int {
	key := 0
	for i, m := range s.Pivots {
		key = key*s.Shape[m] + idx[i]
	}
	return key
}

// shardSide is one sub-tensor's share of a join shard: ids holds the
// entries whose pivot key lands in the shard, grouped by key — group g,
// the key shard + g·shards, is ids[start[g]:start[g+1]] — and in
// lexicographic index order within a group. Nothing is copied out of the
// tensor.
type shardSide struct {
	t          *tensor.Sparse
	k          int // leading pivot modes
	ids, start []int
}

func (s Spec) shardSide(t *tensor.Sparse, shard, shards int) shardSide {
	o, keys := t.Order(), s.gridSize(s.Pivots)
	// Keys are dense, so the grouping is a counting sort: count each
	// group's entries two slots up, turn counts into offsets, and let the
	// fill pass advance start[g+1] from group g's first slot to its last —
	// which is group g+1's first. Entries keep storage order in a group.
	// The shard's keys are shard, shard+shards, … below keys; counted without
	// adding shards, which a spec off the wire may put near MaxInt.
	groups := 0
	if shard < keys {
		groups = (keys-shard-1)/shards + 1
	}
	start := make([]int, groups+2)
	for e := range t.Vals {
		key := s.PivotKey(t.Idx[e*o:])
		if key < 0 || key >= keys {
			panic("stitch: sub-tensor pivot coordinates outside the spec's shape")
		}
		if key%shards == shard {
			start[key/shards+2]++
		}
	}
	for g := 2; g < len(start); g++ {
		start[g] += start[g-1]
	}
	sd := shardSide{t: t, k: len(s.Pivots), ids: make([]int, start[groups+1]), start: start[:groups+1]}
	for e := range t.Vals {
		if key := s.PivotKey(t.Idx[e*o:]); key%shards == shard {
			sd.ids[start[key/shards+1]] = e
			start[key/shards+1]++
		}
	}
	// A sub-tensor assembled in index order (every time-pivot
	// partition.Generate output) has its groups lexicographic already, and
	// one pass per group says so; the entry id keeps duplicates in storage
	// order where a group does need sorting.
	byIndex := func(a, b int) int {
		return cmp.Or(slices.Compare(sd.free(a), sd.free(b)), cmp.Compare(a, b))
	}
	for g := range groups {
		if group := sd.ids[start[g]:start[g+1]]; !slices.IsSortedFunc(group, byIndex) {
			slices.SortFunc(group, byIndex)
		}
	}
	return sd
}

// index is entry e's sub-local multi-index, free its free coordinates.
func (sd shardSide) index(e int) []int {
	o := sd.t.Order()
	return sd.t.Idx[e*o : (e+1)*o]
}

func (sd shardSide) free(e int) []int { return sd.index(e)[sd.k:] }

// gridSize is the number of coordinate combinations over the given modes.
func (s Spec) gridSize(modes []int) int {
	n := 1
	for _, m := range modes {
		n *= s.Shape[m]
	}
	return n
}

// eachUnsampled calls emit with cur set to every point of the free grid
// over modes, in lexicographic order, that is not a free
// coordinate of sd's positions [a, b), which are sorted the same way.
func (s Spec) eachUnsampled(modes, cur []int, sd shardSide, a, b int, emit func()) {
	for g, points := 0, s.gridSize(modes); g < points; g++ {
		for rem, i := g, len(modes)-1; i >= 0; i-- {
			cur[i], rem = rem%s.Shape[modes[i]], rem/s.Shape[modes[i]]
		}
		if a < b && slices.Equal(sd.free(sd.ids[a]), cur) {
			for a++; a < b && slices.Equal(sd.free(sd.ids[a]), cur); a++ {
			}
			continue
		}
		emit()
	}
}

// setColumns writes coords into the given full-space modes of every row
// of an order-o index block.
func setColumns(blk []int, o int, modes, coords []int) {
	for i, m := range modes {
		for at := m; at < len(blk); at += o {
			blk[at] = coords[i]
		}
	}
}

// Shard stitches the pivot groups with key % shards == shard out of the
// two sub-tensors (sub-local mode order, pivots leading), in the package's
// frozen emission order. The sub-tensors hold finite values (ingest,
// ensemble.SimStats.Keep, dropped the rest); nothing here tests a value.
func (s Spec) Shard(x1, x2 *tensor.Sparse, shard, shards int) *tensor.Sparse {
	o := len(s.Shape)
	s1, s2 := s.shardSide(x1, shard, shards), s.shardSide(x2, shard, shards)
	// eachGroup visits the shard's non-empty pivot groups by ascending key:
	// [a1, b1) and [a2, b2) are the group's positions in each side's ids.
	eachGroup := func(fn func(a1, b1, a2, b2 int)) {
		for g := range len(s1.start) - 1 {
			a1, b1, a2, b2 := s1.start[g], s1.start[g+1], s2.start[g], s2.start[g+1]
			if b1 > a1 || b2 > a2 {
				fn(a1, b1, a2, b2)
			}
		}
	}

	// Size the output exactly, by the walk the emission below repeats;
	// most1 and most2 are each side's largest group.
	cur1, cur2 := make([]int, len(s.Free1)), make([]int, len(s.Free2))
	cells, most1, most2 := 0, 0, 0
	eachGroup(func(a1, b1, a2, b2 int) {
		e1, e2 := b1-a1, b2-a2
		cells += e1 * e2
		most1, most2 = max(most1, e1), max(most2, e2)
		if s.ZeroJoin {
			s.eachUnsampled(s.Free2, cur2, s2, a2, b2, func() { cells += e1 })
			s.eachUnsampled(s.Free1, cur1, s1, a1, b1, func() { cells += e2 })
		}
	})
	j := tensor.NewSparse(s.Shape)
	j.Reserve(cells)

	// Block templates of one pivot group: a row per side-2 cell in blk2
	// (free-1 columns set per emission) and, for the zero-join's side-1
	// extensions only, per side-1 cell in blk1 (free-2 columns set per
	// emission).
	var blk1 []int
	if s.ZeroJoin {
		blk1 = make([]int, most1*o)
	}
	blk2 := make([]int, most2*o)
	vals := make([]float64, max(most1, most2))
	rows := func(blk []int, sd shardSide, a, b int, free []int) []int {
		for p := a; p < b; p++ {
			idx, row := sd.index(sd.ids[p]), blk[(p-a)*o:]
			for i, m := range s.Pivots {
				row[m] = idx[i]
			}
			for i, m := range free {
				row[m] = idx[sd.k+i]
			}
		}
		return blk[:(b-a)*o]
	}
	eachGroup(func(a1, b1, a2, b2 int) {
		e1, e2 := b1-a1, b2-a2
		r2 := rows(blk2, s2, a2, b2, s.Free2)
		// Matched pairs, side-1-major: the average of the two results (for
		// a one-sided group these, like one extension below, are empty).
		for p := a1; p < b1; p++ {
			setColumns(r2, o, s.Free1, s1.free(s1.ids[p]))
			v1 := x1.Vals[s1.ids[p]]
			for r := range e2 {
				vals[r] = (v1 + x2.Vals[s2.ids[a2+r]]) / 2
			}
			j.AppendBlock(r2, vals[:e2])
		}
		if !s.ZeroJoin {
			return
		}
		// Zero-join extensions: side 1's cells against side 2's unsampled
		// free configurations, then side 2's against side 1's.
		r1 := rows(blk1, s1, a1, b1, s.Free1)
		for r := range e1 {
			vals[r] = x1.Vals[s1.ids[a1+r]] / 2
		}
		s.eachUnsampled(s.Free2, cur2, s2, a2, b2, func() {
			setColumns(r1, o, s.Free2, cur2)
			j.AppendBlock(r1, vals[:e1])
		})
		for r := range e2 {
			vals[r] = x2.Vals[s2.ids[a2+r]] / 2
		}
		s.eachUnsampled(s.Free1, cur1, s1, a1, b1, func() {
			setColumns(r2, o, s.Free1, cur1)
			j.AppendBlock(r2, vals[:e2])
		})
	})
	return j
}
