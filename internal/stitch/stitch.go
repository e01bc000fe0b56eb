// Package stitch implements JE-stitching (Section V-C): combining two
// PF-partitioned sub-ensembles into a single join tensor J over the full
// parameter space, by joining simulations that agree on the shared pivot
// configuration.
//
// Two variants are provided, matching the paper:
//
//   - Join: for every pair of sub-ensemble cells with equal pivot indices,
//     J gets their average. With P pivot configurations and E free
//     configurations per side this yields P·E² cells — the "effective
//     density squaring" of Figure 6.
//   - ZeroJoin: additionally, every sub-ensemble cell missing its partner
//     is joined against a zero value over the full free grid of the other
//     side, contributing x/2 cells. When sub-ensemble densities are low
//     this boosts the effective density to roughly 2·P·E·F (F = full free
//     grid size per side) and, per Table V, the resulting accuracy.
//
// The join is a SORT-MERGE join: each sub-ensemble's entries are
// stable-sorted by pivot key once (storage order preserved within a pivot
// group), and the two sorted group lists are merged with two pointers. No
// hash map of pivot groups is built and no per-entry free-coordinate
// slices are copied — free coordinates are read straight out of the
// sub-tensors' COO storage. The emission order is identical to the
// original hash-join implementation (pivot keys ascending; entries in
// storage order within a group; zero-join extensions after the matched
// pairs of each group; sub-2-only pivot groups last), so the join tensor's
// entry layout — and therefore every downstream floating-point
// accumulation order — is unchanged bit for bit (see the parity tests
// against the retained reference implementation).
package stitch

import (
	"fmt"
	"sort"

	"repro/internal/partition"
	"repro/internal/tensor"
)

// pivotKey linearises the first k sub-tensor coordinates.
func pivotKey(shape tensor.Shape, idx []int, k int) int {
	key := 0
	for i := 0; i < k; i++ {
		key = key*shape[i] + idx[i]
	}
	return key
}

// subIndex is a sub-ensemble's entries stable-sorted by pivot key and
// split into pivot groups. perm[bounds[g]:bounds[g+1]] are the storage
// indices of group g's entries, in storage order; keys[g] is its pivot
// key. Nothing is copied out of the sub-tensor.
type subIndex struct {
	t      *tensor.Sparse
	k      int   // number of leading pivot modes
	perm   []int // entry ids, stable-sorted by pivot key
	bounds []int // group boundaries into perm (len == len(keys)+1)
	keys   []int // ascending pivot key per group
	// freeKeys, built by sortFreeKeys for the zero-join only, holds each
	// group's local free keys sorted ascending, aligned with perm.
	freeKeys []int
}

// buildIndex compiles the sort-merge index for one sub-ensemble.
func buildIndex(sub *partition.SubEnsemble) subIndex {
	t := sub.Tensor
	k := sub.NumPivots
	o := t.Order()
	n := t.NNZ()
	entryKeys := make([]int, n)
	for e := 0; e < n; e++ {
		entryKeys[e] = pivotKey(t.Shape, t.Idx[e*o:(e+1)*o], k)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// Stable: entries within one pivot group keep their storage order,
	// which is what makes the merge emission identical to the hash-join's.
	sort.SliceStable(perm, func(a, b int) bool { return entryKeys[perm[a]] < entryKeys[perm[b]] })

	bounds := make([]int, 0, 16)
	keys := make([]int, 0, 16)
	for start := 0; start < n; {
		bounds = append(bounds, start)
		keys = append(keys, entryKeys[perm[start]])
		end := start + 1
		for end < n && entryKeys[perm[end]] == entryKeys[perm[start]] {
			end++
		}
		start = end
	}
	bounds = append(bounds, n)
	return subIndex{t: t, k: k, perm: perm, bounds: bounds, keys: keys}
}

// group advances the merge cursor *p to the first group whose key is not
// below key and returns that group's [s, e) range in perm if its key
// equals key, or an empty range otherwise. Callers pass ascending keys.
func (si *subIndex) group(key int, p *int) (s, e int) {
	for *p < len(si.keys) && si.keys[*p] < key {
		*p++
	}
	if *p < len(si.keys) && si.keys[*p] == key {
		return si.bounds[*p], si.bounds[*p+1]
	}
	return 0, 0
}

// sortFreeKeys fills freeKeys: position-aligned with perm, the local free
// keys of every pivot group, sorted ascending within the group — the
// zero-join's sampled-configuration sets, one binary-searchable run per
// group.
func (si *subIndex) sortFreeKeys() {
	si.freeKeys = make([]int, len(si.perm))
	for p := range si.perm {
		idx, _ := si.entry(p)
		si.freeKeys[p] = localKey(idx[si.k:])
	}
	for g := range si.keys {
		sort.Ints(si.freeKeys[si.bounds[g]:si.bounds[g+1]])
	}
}

// distinct counts the distinct values of an ascending slice.
func distinct(sorted []int) int {
	n := 0
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			n++
		}
	}
	return n
}

// gridSize is the number of coordinate combinations over the given modes.
func gridSize(shape tensor.Shape, modes []int) int {
	n := 1
	for _, m := range modes {
		n *= shape[m]
	}
	return n
}

// entry returns the full multi-index (aliasing sub-tensor storage; do not
// mutate) and value of the entry at sorted position p.
func (si *subIndex) entry(p int) ([]int, float64) {
	e := si.perm[p]
	o := si.t.Order()
	return si.t.Idx[e*o : (e+1)*o], si.t.Vals[e]
}

// Join constructs the join tensor J in the original mode order by
// averaging every pair of sub-ensemble cells that agree on the pivot
// configuration (Section V-C.1).
func Join(res *partition.Result) *tensor.Sparse {
	return stitch(res, false)
}

// ZeroJoin constructs the zero-join tensor (Section V-C.2): matched pairs
// are averaged as in Join, and unmatched cells are averaged with an
// implicit zero over every unsampled free configuration of the other side.
func ZeroJoin(res *partition.Result) *tensor.Sparse {
	return stitch(res, true)
}

func stitch(res *partition.Result, zero bool) *tensor.Sparse {
	space := res.Space
	cfg := res.Config
	k := len(cfg.Pivots)
	o := space.Order()
	j := tensor.NewSparse(space.Shape())
	// Divergence quarantine propagates through stitching: if either
	// sub-ensemble rejects non-finite cells, the join does too, so a NaN
	// that slipped past ingest (e.g. direct Vals mutation) is dropped at
	// emission instead of averaging into the shared pivots and poisoning
	// every matched pair of the pivot group.
	j.RejectNonFinite = res.Sub1.Tensor.RejectNonFinite || res.Sub2.Tensor.RejectNonFinite

	idx1 := buildIndex(res.Sub1)
	idx2 := buildIndex(res.Sub2)
	var grid1, grid2 int // full free-grid sizes F₁, F₂
	if zero {
		idx1.sortFreeKeys()
		idx2.sortFreeKeys()
		grid1, grid2 = gridSize(j.Shape, cfg.Free1), gridSize(j.Shape, cfg.Free2)
	}

	// Preallocate the COO arrays exactly: one merge pass over the group
	// lists counts every cell the emission below produces — e₁·e₂ matched
	// pairs per group, plus for the zero-join e₁·(F₂−|sampled₂|) and
	// e₂·(F₁−|sampled₁|) extensions per sub-1 group and e₂·F₁ per sub-2-only
	// group — so multi-megabyte slices never regrow mid-emission.
	// only2 counts down to the sub-2 entries whose pivot group has no sub-1
	// partner.
	cells, maxE2, only2 := 0, 0, idx2.t.NNZ()
	for g1, p2 := 0, 0; g1 < len(idx1.keys); g1++ {
		s1, e1 := idx1.bounds[g1], idx1.bounds[g1+1]
		s2, e2 := idx2.group(idx1.keys[g1], &p2)
		cells += (e1 - s1) * (e2 - s2)
		maxE2 = max(maxE2, e2-s2)
		only2 -= e2 - s2
		if zero {
			cells += (e1-s1)*(grid2-distinct(idx2.freeKeys[s2:e2])) +
				(e2-s2)*(grid1-distinct(idx1.freeKeys[s1:e1]))
		}
	}
	if zero {
		cells += only2 * grid1
	}
	j.Reserve(cells)

	full := make([]int, o)
	emit := func(pivotIdx, free1, free2 []int, v float64) {
		for i, m := range cfg.Pivots {
			full[m] = pivotIdx[i]
		}
		for i, m := range cfg.Free1 {
			full[m] = free1[i]
		}
		for i, m := range cfg.Free2 {
			full[m] = free2[i]
		}
		j.Append(full, v)
	}

	// Block template of one matched pivot group: row r carries the pivot
	// and free-2 coordinates of the group's r-th sub-2 entry (v2s[r] its
	// value); the free-1 columns are patched per sub-1 entry.
	blk := make([]int, 0, maxE2*o)
	v2s := make([]float64, 0, maxE2)
	vals := make([]float64, maxE2)

	isSampled := func(keys []int, key int) bool {
		i := sort.SearchInts(keys, key)
		return i < len(keys) && keys[i] == key
	}

	// Pass 1: every pivot group of sub-ensemble 1, keys ascending, merged
	// two-pointer against sub-ensemble 2's group list.
	p2 := 0
	for g1 := 0; g1 < len(idx1.keys); g1++ {
		s1, e1 := idx1.bounds[g1], idx1.bounds[g1+1]
		s2, e2 := idx2.group(idx1.keys[g1], &p2)
		pivotIdx, _ := idx1.entry(s1)
		pivotIdx = pivotIdx[:k]
		// Matched pairs: the average of the two simulation results, one
		// E₂-cell block per sub-1 entry — the same cells in the same order
		// as a q1-outer, q2-inner pair loop.
		if n2 := e2 - s2; n2 > 0 {
			blk, v2s = blk[:0], v2s[:0]
			for i, m := range cfg.Pivots {
				full[m] = pivotIdx[i]
			}
			for q2 := s2; q2 < e2; q2++ {
				i2, v2 := idx2.entry(q2)
				for i, m := range cfg.Free2 {
					full[m] = i2[k+i]
				}
				blk = append(blk, full...)
				v2s = append(v2s, v2)
			}
			for q1 := s1; q1 < e1; q1++ {
				i1, v1 := idx1.entry(q1)
				for i, m := range cfg.Free1 {
					c := i1[k+i]
					for at := m; at < len(blk); at += o {
						blk[at] = c
					}
				}
				for r, v2 := range v2s {
					vals[r] = (v1 + v2) / 2
				}
				j.AppendBlock(blk, vals[:n2])
			}
		}
		if !zero {
			continue
		}
		// Zero-join extensions: each existing cell joined against the
		// other side's unsampled free configurations with value 0.
		sampled2 := idx2.freeKeys[s2:e2]
		eachFreeConfig(space, cfg.Free2, func(f2 []int) {
			if isSampled(sampled2, localKey(f2)) {
				return
			}
			for q1 := s1; q1 < e1; q1++ {
				i1, v1 := idx1.entry(q1)
				emit(pivotIdx, i1[k:], f2, v1/2)
			}
		})
		sampled1 := idx1.freeKeys[s1:e1]
		eachFreeConfig(space, cfg.Free1, func(f1 []int) {
			if isSampled(sampled1, localKey(f1)) {
				return
			}
			for q2 := s2; q2 < e2; q2++ {
				i2, v2 := idx2.entry(q2)
				emit(pivotIdx, f1, i2[k:], v2/2)
			}
		})
	}
	// Pass 2: pivot configurations sampled for sub-ensemble 2 only
	// (possible in principle, though Generate always aligns them).
	if zero {
		p1 := 0
		for g2 := 0; g2 < len(idx2.keys); g2++ {
			if s1, e1 := idx1.group(idx2.keys[g2], &p1); e1 > s1 {
				continue
			}
			s2, e2 := idx2.bounds[g2], idx2.bounds[g2+1]
			pivotIdx, _ := idx2.entry(s2)
			pivotIdx = pivotIdx[:k]
			eachFreeConfig(space, cfg.Free1, func(f1 []int) {
				for q2 := s2; q2 < e2; q2++ {
					i2, v2 := idx2.entry(q2)
					emit(pivotIdx, f1, i2[k:], v2/2)
				}
			})
		}
	}
	return j
}

const localRadix = 1 << 20 // far above any mode size

// maxLocalKeyModes bounds the positional radix packing: 3 modes × 20 bits
// = 60 bits, the most that fits a 63-bit non-negative int. A fourth mode
// would shift the leading coordinate past bit 63 and silently wrap,
// producing key collisions and therefore wrong zero-join membership — so
// localKey refuses loudly instead.
const maxLocalKeyModes = 3

// localKey packs free-mode coordinates into a single int key, unique
// within one pivot group. Keys only need to be comparable within one
// group, so a fixed large radix per mode suffices.
func localKey(idx []int) int {
	if len(idx) > maxLocalKeyModes {
		panic(fmt.Sprintf("stitch: localKey cannot pack %d free modes at radix 2^20 (max %d before exceeding 63 bits); widen the radix packing before using this many free modes per side", len(idx), maxLocalKeyModes))
	}
	key := 0
	for _, i := range idx {
		if i >= localRadix {
			panic(fmt.Sprintf("stitch: mode index %d exceeds radix", i))
		}
		key = key*localRadix + i
	}
	return key
}

// eachFreeConfig enumerates every coordinate combination over the given
// original modes.
func eachFreeConfig(space interface{ Shape() tensor.Shape }, modes []int, fn func(idx []int)) {
	shape := space.Shape()
	cur := make([]int, len(modes))
	var walk func(pos int)
	walk = func(pos int) {
		if pos == len(modes) {
			fn(cur)
			return
		}
		for i := 0; i < shape[modes[pos]]; i++ {
			cur[pos] = i
			walk(pos + 1)
		}
	}
	walk(0)
}
