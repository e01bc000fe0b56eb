package stitch

import (
	"fmt"
	"sort"

	"repro/internal/partition"
	"repro/internal/tensor"
)

// This file retains the original hash-join stitching implementation. It is
// a second, independent definition of JE-stitching beside the per-group
// oracle in shard_test.go: a hash map of pivot groups, cells in storage
// order within a group, sub-2-only pivot groups last. The parity tests
// hold Join/ZeroJoin to it — bit for bit, entry order included, on
// time-pivot Generate output (whose storage is already lexicographic
// within a pivot group), and as a cell list where the kernel's frozen
// order legitimately differs from storage order.

// pivotKey linearises the first k sub-tensor coordinates.
func pivotKey(shape tensor.Shape, idx []int, k int) int {
	key := 0
	for i := 0; i < k; i++ {
		key = key*shape[i] + idx[i]
	}
	return key
}

// freeKey names one free configuration in a membership set.
func freeKey(idx []int) string { return fmt.Sprint(idx) }

// eachFreeConfig enumerates every coordinate combination over the given
// original modes, lexicographically.
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

// stitchHashJoin is the hash-join stitch: hash map of pivot groups,
// per-entry free-coordinate copies, sorted-key iteration.
func stitchHashJoin(res *partition.Result, zero bool) *tensor.Sparse {
	space := res.Space
	cfg := res.Config
	k := len(cfg.Pivots)
	j := tensor.NewSparse(space.Shape())

	idx1 := indexRef(res.Sub1)
	idx2 := indexRef(res.Sub2)

	matched := 0
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
			if sampled2[freeKey(f2)] {
				return
			}
			for _, e1 := range entries1 {
				emit(pivotIdx, e1.free, f2, e1.val/2)
			}
		})
		sampled1 := freeSetRef(entries1)
		eachFreeConfig(space, cfg.Free1, func(f1 []int) {
			if sampled1[freeKey(f1)] {
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
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// freeSetRef returns the set of sampled free configurations.
func freeSetRef(entries []subEntryRef) map[string]bool {
	out := make(map[string]bool, len(entries))
	for _, e := range entries {
		out[freeKey(e.free)] = true
	}
	return out
}
