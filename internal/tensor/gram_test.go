package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mat"
)

// reordered copies x with each τ run's cells permuted by perm (a
// permutation of one run's positions) — the layout partition emits when it
// samples time indices — and, with every cell index e where drop(e) holds
// left out, the holes a quarantined cell leaves.
func reordered(x *Sparse, run int, perm []int, drop func(e int) bool) *Sparse {
	out := NewSparse(x.Shape)
	o := x.Order()
	for base := 0; base < x.NNZ(); base += run {
		for _, j := range perm {
			e := base + j
			if !drop(e) {
				out.Append(x.Idx[e*o:(e+1)*o], x.Vals[e])
			}
		}
	}
	return out
}

// concat stores b's cells after a's.
func concat(a, b *Sparse) *Sparse {
	out := a.Clone()
	out.Idx = append(out.Idx, b.Idx...)
	out.Vals = append(out.Vals, b.Vals...)
	return out
}

// fibreCases are tensors whose storage holds fibre runs, with the run
// mode findRuns must find, and tensors without, where it must find none.
func fibreCases() []struct {
	name string
	x    *Sparse
	tau  int
} {
	sub := pivotSub(6)
	perm := rand.New(rand.NewSource(1)).Perm(6)
	rng := rand.New(rand.NewSource(2))
	dense := randomDense(rng, Shape{4, 5, 6}).ToSparse(0)
	return []struct {
		name string
		x    *Sparse
		tau  int
	}{
		{"pivot-t sub-tensor", sub, 0},
		{"baseline", baselineShape(5, 40), 4},
		{"sampled time order", reordered(sub, 6, perm, func(int) bool { return false }), 0},
		{"holes", reordered(sub, 6, []int{0, 1, 2, 3, 4, 5}, func(e int) bool { return e%5 == 2 }), 0},
		{"sampled time subset", reordered(sub, 6, perm[:3], func(int) bool { return false }), 0},
		{"every fibre twice", concat(sub, pivotSub(6)), 0},
		{"dense, C order", dense, 2},
		{"random order", seededSparse(Shape{6, 5, 4}, 300, 3), -1},
		{"one mode, random order", seededSparse(Shape{60}, 5000, 4), -1},
	}
}

func TestFindRunsFindsTheFibreMode(t *testing.T) {
	for _, c := range fibreCases() {
		fr := findRuns(c.x, &gramScratch{})
		if fr.tau != c.tau {
			t.Fatalf("%s: run mode %d, want %d", c.name, fr.tau, c.tau)
		}
		if fr.tau < 0 {
			continue
		}
		// Runs tile the storage; each agrees off τ and never repeats a τ
		// index; a step run's τ indices ascend by one.
		o := c.x.Order()
		if runs := fr.runs; runs[0].start != 0 || runs[len(runs)-1].start != c.x.NNZ() {
			t.Fatalf("%s: runs %v do not tile %d cells", c.name, runs, c.x.NNZ())
		}
		for r := 0; r < fr.numRuns(c.x.NNZ()); r++ {
			e0, e1 := fr.bounds(r)
			seen := map[int]bool{}
			step := true
			for e := e0; e < e1; e++ {
				tt := c.x.Idx[e*o+fr.tau]
				if seen[tt] {
					t.Fatalf("%s: run %d repeats τ index %d", c.name, r, tt)
				}
				seen[tt] = true
				for k := 0; k < o; k++ {
					if k != fr.tau && c.x.Idx[e*o+k] != c.x.Idx[e0*o+k] {
						t.Fatalf("%s: run %d changes mode %d", c.name, r, k)
					}
				}
				if e > e0 && tt != c.x.Idx[(e-1)*o+fr.tau]+1 {
					step = false
				}
			}
			if step != fr.runs[r].step {
				t.Fatalf("%s: run %d step %v, want %v", c.name, r, fr.runs[r].step, step)
			}
		}
	}
}

// TestModeGramOverRunsMatchesOracle: with or without a run mode, every
// mode's Gram equals the dense matricization's to 1e-12 of the Gram of
// |X|, is exactly symmetric and has the same bits at workers 1, 2 and 8.
func TestModeGramOverRunsMatchesOracle(t *testing.T) {
	for _, c := range fibreCases() {
		abs := c.x.Clone()
		for i, v := range abs.Vals {
			abs.Vals[i] = math.Abs(v)
		}
		for n := 0; n < c.x.Order(); n++ {
			got := ModeGramWorkers(c.x, n, 1)
			want := mat.Gram(Matricize(c.x.ToDense(), n))
			scale := mat.Gram(Matricize(abs.ToDense(), n))
			rows := got.Rows
			for i, v := range got.Data {
				if math.Abs(v-want.Data[i]) > 1e-12*scale.Data[i] {
					t.Fatalf("%s mode %d: entry %d = %v, oracle %v", c.name, n, i, v, want.Data[i])
				}
				if r, col := i/rows, i%rows; v != got.Data[col*rows+r] {
					t.Fatalf("%s mode %d: not symmetric at (%d, %d)", c.name, n, r, col)
				}
			}
			for _, w := range []int{2, 8} {
				if !matEqualBits(got, ModeGramWorkers(c.x, n, w)) {
					t.Fatalf("%s mode %d: workers=%d differs from workers=1", c.name, n, w)
				}
			}
		}
	}
}

// TestFibreGramAllocatesUnderAWordPerCell: a fibre-laid tensor's Gram
// allocates less than one word per cell. Nothing per cell is compiled or
// copied: the Gram reads the runs where the storage holds them.
func TestFibreGramAllocatesUnderAWordPerCell(t *testing.T) {
	x := pivotSub(24)
	for n := 0; n < x.Order(); n++ {
		ModeGramWorkers(x, n, 1) // warm the scratch pool
		var before, after runtime.MemStats
		const calls = 10
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			ModeGramWorkers(x, n, 1)
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= uint64(8*x.NNZ()) {
			t.Fatalf("mode %d: a Gram of %d cells allocates %d B, want under %d", n, x.NNZ(), perCall, 8*x.NNZ())
		}
	}
}

// TestModeGramAfterMutation: a tensor keeps nothing a kernel derived from
// it, so a Gram taken after a mutation — Append, Dedup, or a direct write
// to Vals with no call in between — is the Gram of the mutated entries.
// Append and DirectWrite leave the storage in random order, with no run
// mode, so their Gram keeps the reference's bits. Dedup sorts the
// storage, which lays it out in runs; the run Gram equals the reference
// to rounding only.
func TestModeGramAfterMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSparse(rng, Shape{6, 5, 4}, 50)

	mutations := []struct {
		name string
		do   func(*Sparse)
		runs bool // the mutated storage has a run mode
	}{
		{"Append", func(s *Sparse) { s.Append([]int{0, 0, 0}, 1.5) }, false},
		{"Dedup", func(s *Sparse) { s.Dedup(SumDuplicates) }, true},
		{"DirectWrite", func(s *Sparse) { s.Vals[0] *= 2 }, false},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := s.Clone()
			before := ModeGramWorkers(c, 0, 1)
			m.do(c)
			after := ModeGramWorkers(c, 0, 1)
			ref := modeGramWorkersRef(c.Clone(), 0, 1)
			if tau := findRuns(c, &gramScratch{}).tau; (tau >= 0) != m.runs {
				t.Fatalf("%s: run mode %d, want runs %v", m.name, tau, m.runs)
			}
			if m.runs {
				if !after.Equal(ref, 1e-12) {
					t.Fatalf("%s: Gram differs from the reference's", m.name)
				}
			} else {
				bitsEqualMat(t, m.name, after, ref)
			}
			if m.name == "DirectWrite" && reflect.DeepEqual(before.Data, after.Data) {
				t.Fatal("the write did not move the Gram; the case proves nothing")
			}
		})
	}
}
