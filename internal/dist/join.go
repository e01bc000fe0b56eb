package dist

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// This file is the engine-independent heart of Phases 1–2: the pivot-key
// geometry, the shard stitch kernel, and the pivot-factor fusion.

// JoinSpec describes the JE-stitch geometry of a PF-partitioned pair:
// the full space shape, which full-space modes are pivots and which are
// each side's free modes, and whether zero-join extensions are emitted.
// It is a pure value (JSON-serializable by the distributed runtime), and
// every method on it is a pure function — the determinism contract's
// foundation.
type JoinSpec struct {
	Shape    tensor.Shape `json:"shape"`
	Pivots   []int        `json:"pivots"`
	Free1    []int        `json:"free1"`
	Free2    []int        `json:"free2"`
	ZeroJoin bool         `json:"zero_join,omitempty"`
}

// NewJoinSpec derives the spec for a partitioned pair.
func NewJoinSpec(p *partition.Result, zeroJoin bool) JoinSpec {
	return JoinSpec{
		Shape:    p.Space.Shape(),
		Pivots:   p.Config.Pivots,
		Free1:    p.Config.Free1,
		Free2:    p.Config.Free2,
		ZeroJoin: zeroJoin,
	}
}

// PivotKey linearises a sub-local index's pivot coordinates — identical
// for both sub-tensors since pivots lead the mode order on each side.
// Keys are dense in [0, ∏ pivot sizes), so key % shards is a balanced,
// timing-independent shard assignment.
func (s JoinSpec) PivotKey(idx []int) int {
	key := 0
	for i, m := range s.Pivots {
		key = key*s.Shape[m] + idx[i]
	}
	return key
}

// shardSide is one sub-tensor's share of a join shard: ids holds the
// entries whose pivot key (key, by entry id) lands in the shard, sorted by
// (pivot key, lexicographic index). Nothing is copied out of the tensor.
type shardSide struct {
	t        *tensor.Sparse
	k        int // leading pivot modes
	ids, key []int
}

func (s JoinSpec) shardSide(t *tensor.Sparse, shard, shards int) shardSide {
	o := t.Order()
	sd := shardSide{t: t, k: len(s.Pivots), ids: make([]int, 0, t.NNZ()), key: make([]int, t.NNZ())}
	for e := range sd.key {
		if sd.key[e] = s.PivotKey(t.Idx[e*o:]); sd.key[e]%shards == shard {
			sd.ids = append(sd.ids, e)
		}
	}
	// Within one key the pivot coordinates agree, so this is lexicographic
	// index order; the entry id keeps duplicates in storage order.
	slices.SortFunc(sd.ids, func(a, b int) int {
		if c := cmp.Compare(sd.key[a], sd.key[b]); c != 0 {
			return c
		}
		return cmp.Or(slices.Compare(sd.free(a), sd.free(b)), cmp.Compare(a, b))
	})
	return sd
}

// index is entry e's sub-local multi-index, free its free coordinates.
func (sd shardSide) index(e int) []int {
	o := sd.t.Order()
	return sd.t.Idx[e*o : (e+1)*o]
}

func (sd shardSide) free(e int) []int { return sd.index(e)[sd.k:] }

// gridSize is the number of coordinate combinations over the given modes.
func (s JoinSpec) gridSize(modes []int) int {
	n := 1
	for _, m := range modes {
		n *= s.Shape[m]
	}
	return n
}

// eachUnsampled calls emit with cur set to every point of the free grid
// over modes, in lexicographic order, that is not a free
// coordinate of sd's positions [a, b), which are sorted the same way.
func (s JoinSpec) eachUnsampled(modes, cur []int, sd shardSide, a, b int, emit func()) {
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

// StitchShard is Phase 2 for one shard of a sharded run: it stitches the
// pivot groups with key % shards == shard out of the two sub-tensors
// (sub-local mode order, pivots leading). Groups are emitted in ascending
// key order, each side sorted lexicographically; within a group, matched
// pairs first (side-1-major), then side 1's zero-join extensions against
// side 2's unsampled free configurations, then side 2's. That order is
// frozen — Phase 3's summation order inherits it. Groups are found by
// sorting entry ids, the output is sized exactly up front and emitted by
// block template through AppendBlock: nothing is allocated per group or
// per cell.
func (s JoinSpec) StitchShard(x1, x2 *tensor.Sparse, shard, shards int) *tensor.Sparse {
	o := len(s.Shape)
	s1, s2 := s.shardSide(x1, shard, shards), s.shardSide(x2, shard, shards)
	// eachGroup visits the shard's non-empty pivot groups by ascending key
	// (keys are dense, so the shard's keys are an arithmetic progression):
	// [a1, b1) and [a2, b2) are the group's sorted positions in each side.
	eachGroup := func(fn func(a1, b1, a2, b2 int)) {
		b1, b2 := 0, 0
		for key, keys := shard, s.gridSize(s.Pivots); key < keys; key += shards {
			a1, a2 := b1, b2
			for ; b1 < len(s1.ids) && s1.key[s1.ids[b1]] == key; b1++ {
			}
			for ; b2 < len(s2.ids) && s2.key[s2.ids[b2]] == key; b2++ {
			}
			if b1 > a1 || b2 > a2 {
				fn(a1, b1, a2, b2)
			}
		}
		if b1 < len(s1.ids) || b2 < len(s2.ids) {
			panic("dist: sub-tensor pivot coordinates outside the join spec's shape")
		}
	}

	// Size the output exactly, by the walk the emission below repeats.
	cur1, cur2 := make([]int, len(s.Free1)), make([]int, len(s.Free2))
	cells := 0
	eachGroup(func(a1, b1, a2, b2 int) {
		e1, e2 := b1-a1, b2-a2
		cells += e1 * e2
		if s.ZeroJoin {
			s.eachUnsampled(s.Free2, cur2, s2, a2, b2, func() { cells += e1 })
			s.eachUnsampled(s.Free1, cur1, s1, a1, b1, func() { cells += e2 })
		}
	})
	j := tensor.NewSparse(s.Shape)
	j.Reserve(cells)

	// Block templates of one pivot group: a row per side-1 cell in blk1
	// (free-2 columns set per emission), per side-2 cell in blk2 (free-1
	// columns set per emission). A group is at most its side's whole share.
	n1, n2 := len(s1.ids), len(s2.ids)
	blk1, blk2 := make([]int, n1*o), make([]int, n2*o)
	vals := make([]float64, max(n1, n2))
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
		r1, r2 := rows(blk1, s1, a1, b1, s.Free1), rows(blk2, s2, a2, b2, s.Free2)
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

// FuseFactors fuses Phase 1's per-sub-tensor outputs into the full
// factor list (Algorithm 6 line "fuse pivot factors"): pivot-mode
// factors are fused per the method (core.FusePivot) and each side's
// free-mode factors are taken as-is. sub1F/sub2F and sub1G/sub2G are each
// sub-tensor's per-sub-local-mode factor and Gram matrices; ranks are the
// full-space clipped ranks (CONCAT's re-solve needs them).
func FuseFactors(method core.Method, cfg partition.Config, order int, ranks []int, sub1F, sub1G, sub2F, sub2G []*mat.Matrix) []*mat.Matrix {
	k := len(cfg.Pivots)
	factors := make([]*mat.Matrix, order)
	for i, m := range cfg.Pivots {
		factors[m] = core.FusePivot(method, ranks[m], sub1F[i], sub1G[i], sub2F[i], sub2G[i])
	}
	for i, m := range cfg.Free1 {
		factors[m] = sub1F[k+i]
	}
	for i, m := range cfg.Free2 {
		factors[m] = sub2F[k+i]
	}
	return factors
}
