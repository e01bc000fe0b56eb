package tensor

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mat"
)

// FuzzLinearIndexRoundtrip checks that MultiIndex inverts LinearIndex for
// arbitrary small shapes and positions.
func FuzzLinearIndexRoundtrip(f *testing.F) {
	f.Add(2, 3, 4, 10)
	f.Add(1, 1, 1, 0)
	f.Add(5, 2, 7, 33)
	f.Fuzz(func(t *testing.T, d0, d1, d2, lin int) {
		if d0 < 1 || d1 < 1 || d2 < 1 || d0 > 12 || d1 > 12 || d2 > 12 {
			t.Skip()
		}
		shape := Shape{d0, d1, d2}
		n := shape.NumElements()
		if lin < 0 || lin >= n {
			t.Skip()
		}
		idx := make([]int, 3)
		shape.MultiIndex(lin, idx)
		if got := shape.LinearIndex(idx); got != lin {
			t.Fatalf("roundtrip %d -> %v -> %d for shape %v", lin, idx, got, shape)
		}
		// The matricization column index must stay within bounds for all
		// modes.
		for mode := 0; mode < 3; mode++ {
			col := shape.MatricizeColumn(mode, idx)
			if col < 0 || col >= shape.MatricizeCols(mode) {
				t.Fatalf("column %d out of range for mode %d, shape %v", col, mode, shape)
			}
		}
	})
}

// FuzzDedupPreservesSum checks that summing duplicates preserves the total
// mass of a sparse tensor.
func FuzzDedupPreservesSum(f *testing.F) {
	f.Add(int64(1), 10)
	f.Add(int64(7), 30)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 1 || n > 200 {
			t.Skip()
		}
		shape := Shape{3, 3}
		s := NewSparse(shape)
		// Deterministic pseudo-random fill with duplicates.
		x := seed
		var total float64
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			a := int((x >> 33) & 1)
			b := int((x >> 34) & 1)
			v := float64(int32(x>>35%1000)) / 100
			s.Append([]int{a, b}, v)
			total += v
		}
		s.Dedup(SumDuplicates)
		var after float64
		s.Each(func(idx []int, v float64) { after += v })
		if diff := total - after; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Dedup changed total mass: %v -> %v", total, after)
		}
		// No duplicates remain.
		seen := map[int]bool{}
		s.Each(func(idx []int, v float64) {
			lin := shape.LinearIndex(idx)
			if seen[lin] {
				t.Fatalf("duplicate survives Dedup at %v", idx)
			}
			seen[lin] = true
		})
	})
}

// FuzzModeGram holds the sparse Gram to a dense-matricization oracle on
// arbitrary small tensors — order 1 to 5, cells in any storage order,
// duplicates, fibre pieces along any mode with holes and wrap-around — to
// 1e-12 of the Gram of |X| per entry, and to the same bits at workers 1, 2
// and 8. Tensors hold at most fuzzGramCells cells. Every Gram group sums a
// row's cells or runs before it multiplies, so an entry's rounding grows
// with the m cells of a row or column, about m·2⁻⁵³ of the scale, not with
// their m² pairs. The last two seeds are the worst cases: 512 identical
// cells at one index, and one fibre stored 1 000 times.
func FuzzModeGram(f *testing.F) {
	f.Add([]byte{2, 3, 4, 1, 0, 0, 0, 0, 9, 1, 1, 2, 3, 0, 0, 7})
	f.Add([]byte{3, 4, 4, 4, 3, 0, 1, 2, 3, 0, 40, 3, 0, 2, 2, 3, 0, 50, 3, 0, 3, 2, 3, 0, 60})
	f.Add([]byte{0, 4, 1, 3, 9, 0, 3, 1, 2, 4, 1, 2, 0, 5, 1})
	f.Add([]byte{4, 2, 3, 2, 4, 2, 9, 1, 0, 1, 1, 3, 1, 1, 8, 1, 1, 0, 1, 1, 3, 1, 2, 8, 0, 1, 2, 0, 1, 1, 3, 1, 5})
	f.Add(append([]byte{2, 3, 4, 1}, bytes.Repeat([]byte{0, 0, 0, 0, 0xcc}, 70)...))
	f.Add(append([]byte{2, 3, 4, 1}, bytes.Repeat([]byte{0, 0, 0, 0, 0xcc}, 512)...))
	f.Add(append([]byte{2, 4, 2, 3}, bytes.Repeat([]byte{1, 0, 1, 2, 3, 0, 0, 0x81, 0x7f, 0x35, 0xd2}, 1000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, abs := fuzzSparse(data)
		if s == nil {
			return
		}
		for n := 0; n < s.Order(); n++ {
			got := ModeGramWorkers(s, n, 1)
			want := mat.Gram(Matricize(s.ToDense(), n))
			scale := mat.Gram(Matricize(abs.ToDense(), n))
			for i, v := range got.Data {
				if math.Abs(v-want.Data[i]) > 1e-12*scale.Data[i] {
					t.Fatalf("mode %d of %v, %d cells: Gram entry %d = %v, oracle %v", n, s.Shape, s.NNZ(), i, v, want.Data[i])
				}
			}
			for _, w := range []int{2, 8} {
				if !matEqualBits(got, ModeGramWorkers(s, n, w)) {
					t.Fatalf("mode %d of %v: workers=%d differs from workers=1", n, s.Shape, w)
				}
			}
		}
	})
}

// fuzzGramCells caps FuzzModeGram's tensors (see there).
const fuzzGramCells = 4096

// fuzzSparse decodes a small tensor and its cell-wise absolute value from
// data: an order byte, one size byte per mode, then records. A record with
// an even lead byte is one cell (indices, value); an odd one is a fibre
// piece along mode lead/2: its other indices, a length, a start, a
// hole mask and the values, the τ index wrapping past the mode's end.
func fuzzSparse(data []byte) (*Sparse, *Sparse) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	if len(data) < 2 {
		return nil, nil
	}
	shape := make(Shape, 1+next()%5)
	for k := range shape {
		shape[k] = 1 + next()%5
	}
	s, abs := NewSparse(shape), NewSparse(shape)
	idx := make([]int, len(shape))
	add := func() {
		v := float64(int8(next())) * 0.37
		s.Append(idx, v)
		abs.Append(idx, math.Abs(v))
	}
	for len(data) > 0 && s.NNZ() < fuzzGramCells {
		lead := next()
		for k := range idx {
			idx[k] = next() % shape[k]
		}
		if lead%2 == 0 {
			add()
			continue
		}
		m := (lead / 2) % len(shape)
		length, start, holes := 1+next()%shape[m], next(), next()
		for j := 0; j < length; j++ {
			idx[m] = (start + j) % shape[m]
			if holes>>(j%8)&1 == 0 {
				add()
			}
		}
	}
	return s, abs
}
