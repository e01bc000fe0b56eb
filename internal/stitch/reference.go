package stitch

import (
	"sort"

	"repro/internal/partition"
	"repro/internal/tensor"
)

// This file retains the original hash-join stitching implementation
// verbatim. It is the executable specification for the sort-merge join in
// stitch.go: the parity tests assert that Join/ZeroJoin produce COO
// storage (entry order, indices, and values) identical to
// stitchHashJoin's. Test-only; do not use in pipelines.

// subEntryRef is one sub-ensemble cell split into pivot part and free part.
type subEntryRef struct {
	free []int
	val  float64
}

// indexRef groups a sub-ensemble's cells by pivot configuration.
func indexRef(sub *partition.SubEnsemble) map[int][]subEntryRef {
	k := sub.NumPivots
	out := make(map[int][]subEntryRef)
	sub.Tensor.Each(func(idx []int, v float64) {
		key := pivotKey(sub.Tensor.Shape, idx, k)
		out[key] = append(out[key], subEntryRef{free: append([]int(nil), idx[k:]...), val: v})
	})
	return out
}

// pivotIdxFromKeyRef inverts pivotKey into the pivot coordinates.
func pivotIdxFromKeyRef(shape tensor.Shape, key, k int) []int {
	idx := make([]int, k)
	for i := k - 1; i >= 0; i-- {
		idx[i] = key % shape[i]
		key /= shape[i]
	}
	return idx
}

// stitchHashJoin is the pre-sort-merge stitch: hash map of pivot groups,
// per-entry free-coordinate copies, sorted-key iteration.
func stitchHashJoin(res *partition.Result, zero bool) *tensor.Sparse {
	space := res.Space
	cfg := res.Config
	k := len(cfg.Pivots)
	j := tensor.NewSparse(space.Shape())

	idx1 := indexRef(res.Sub1)
	idx2 := indexRef(res.Sub2)

	matched := 0
	//lint:allow determinism -- commutative count accumulation; map iteration order cannot affect the sum
	for key, entries1 := range idx1 {
		matched += len(entries1) * len(idx2[key])
	}
	j.Reserve(matched)

	full := make([]int, space.Order())
	emit := func(pivotIdx, free1, free2 []int, v float64) {
		for i, m := range cfg.Pivots {
			full[m] = pivotIdx[i]
		}
		if free1 != nil {
			for i, m := range cfg.Free1 {
				full[m] = free1[i]
			}
		}
		if free2 != nil {
			for i, m := range cfg.Free2 {
				full[m] = free2[i]
			}
		}
		j.Append(full, v)
	}

	keys1 := sortedKeysRef(idx1)
	shape1 := res.Sub1.Tensor.Shape
	for _, key := range keys1 {
		entries1 := idx1[key]
		entries2 := idx2[key]
		pivotIdx := pivotIdxFromKeyRef(shape1, key, k)
		for _, e1 := range entries1 {
			for _, e2 := range entries2 {
				emit(pivotIdx, e1.free, e2.free, (e1.val+e2.val)/2)
			}
		}
		if !zero {
			continue
		}
		sampled2 := freeSetRef(entries2)
		eachFreeConfig(space, cfg.Free2, func(f2 []int) {
			if sampled2[localKey(f2)] {
				return
			}
			for _, e1 := range entries1 {
				emit(pivotIdx, e1.free, f2, e1.val/2)
			}
		})
		sampled1 := freeSetRef(entries1)
		eachFreeConfig(space, cfg.Free1, func(f1 []int) {
			if sampled1[localKey(f1)] {
				return
			}
			for _, e2 := range entries2 {
				emit(pivotIdx, f1, e2.free, e2.val/2)
			}
		})
	}
	if zero {
		shape2 := res.Sub2.Tensor.Shape
		for _, key := range sortedKeysRef(idx2) {
			if _, ok := idx1[key]; ok {
				continue
			}
			entries2 := idx2[key]
			pivotIdx := pivotIdxFromKeyRef(shape2, key, k)
			eachFreeConfig(space, cfg.Free1, func(f1 []int) {
				for _, e2 := range entries2 {
					emit(pivotIdx, f1, e2.free, e2.val/2)
				}
			})
		}
	}
	return j
}

// sortedKeysRef returns the map's keys in increasing order.
func sortedKeysRef(m map[int][]subEntryRef) []int {
	keys := make([]int, 0, len(m))
	//lint:allow determinism -- key collection only; the slice is sorted immediately below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// freeSetRef returns the set of sampled free configurations.
func freeSetRef(entries []subEntryRef) map[int]bool {
	out := make(map[int]bool, len(entries))
	for _, e := range entries {
		out[localKey(e.free)] = true
	}
	return out
}
