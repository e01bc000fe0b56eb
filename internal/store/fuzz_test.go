package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// FuzzLoadSparseRobustness feeds arbitrary bytes to the sparse loader: it
// must either return a clean error or a valid tensor — never panic.
func FuzzLoadSparseRobustness(f *testing.F) {
	// Seed with a valid file and a few mutations of it.
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	sp := tensor.NewSparse(tensor.Shape{3, 2})
	sp.Append([]int{1, 1}, 2.5)
	sp.Append([]int{2, 0}, -1)
	if err := s.SaveSparse("seed", sp); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, "seed.m2td"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	// Multi-block seeds, so the block decoder's boundaries are in the
	// corpus: three blocks, and the same file cut inside the second.
	big := tensor.NewSparse(tensor.Shape{2*BlockSize + 3})
	for i := 0; i < 2*BlockSize+3; i++ {
		big.Append([]int{i}, float64(i))
	}
	if err := s.SaveSparse("big", big); err != nil {
		f.Fatal(err)
	}
	multi, err := os.ReadFile(filepath.Join(dir, "big.m2td"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multi)
	f.Add(multi[:blockOffset(1, 1)+4+BlockSize/2*sparseCellBytes(1)])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "x.m2td"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := st.LoadSparse("x")
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				t.Fatal("existing file reported as not found")
			}
			return // clean rejection is the expected path for mutations
		}
		// Accepted files must decode to a well-formed tensor.
		if got == nil {
			t.Fatal("nil tensor with nil error")
		}
		got.Each(func(idx []int, v float64) {
			for k, i := range idx {
				if i < 0 || i >= got.Shape[k] {
					t.Fatalf("out-of-range index %v survived load", idx)
				}
			}
		})
	})
}

// headerLen is the length of every object's magic, version and kind.
const headerLen = len(magic) + 4 + 1

// savedBytes returns the file save wrote for the object "seed".
func savedBytes(f *testing.F, save func(s *Store) error) []byte {
	f.Helper()
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := save(s); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(s.Dir(), "seed.m2td"))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// claimMatrixDims returns valid with the (rows, cols) header at offset at
// patched to 1<<24 each — the largest the per-dimension check lets through,
// a 2 PB matrix in a file of a few dozen bytes.
func claimMatrixDims(valid []byte, at int) []byte {
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[at:], 1<<24)
	binary.LittleEndian.PutUint64(huge[at+8:], 1<<24)
	return huge
}

// fuzzLoad writes data as the object "x" of a fresh store and loads it:
// whatever the bytes, load must return — an error or a value — never
// panic and never size an allocation by a claim the file cannot back.
func fuzzLoad(t *testing.T, data []byte, load func(s *Store) error) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x.m2td"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := load(st); errors.Is(err, ErrNotFound) {
		t.Fatal("existing file reported as not found")
	}
}

// FuzzLoadMatrices covers the decoder the distnet coordinator runs on
// every worker-written p1-/p3-g artifact.
func FuzzLoadMatrices(f *testing.F) {
	valid := savedBytes(f, func(s *Store) error {
		return s.SaveMatrices("seed", []*mat.Matrix{mat.FromSlice(2, 2, []float64{1, 2, 3, 4})})
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-9])
	f.Add(claimMatrixDims(valid, headerLen+4))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzLoad(t, data, func(s *Store) error {
			ms, err := s.LoadMatrices("x")
			for _, m := range ms {
				if len(m.Data) != m.Rows*m.Cols {
					t.Fatalf("loaded a %d×%d matrix over %d values", m.Rows, m.Cols, len(m.Data))
				}
			}
			return err
		})
	})
}

// FuzzLoadSimSet covers the checkpoints and sims- catalogs campaigns
// resume from: an accepted file is SaveSimSet's own encoding, so
// re-saving what it decoded reproduces it byte for byte.
func FuzzLoadSimSet(f *testing.F) {
	valid := savedBytes(f, func(s *Store) error {
		return s.SaveSimSet("seed", "fp", map[int][]float64{7: {1, 2, 3}, 9: {4}})
	})
	countAt := headerLen + 4 + len("fp")
	hugeCount, repeatedKey := append([]byte(nil), valid...), append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(hugeCount[countAt:], 1<<39)
	binary.LittleEndian.PutUint64(repeatedKey[countAt+8+12+3*8:], 7) // the second key
	trailingByte := append(valid[:len(valid):len(valid)], 0)         // resealed: one byte after the last entry
	for _, seed := range [][]byte{valid, valid[:len(valid)-9], reseal(hugeCount), reseal(repeatedKey), reseal(trailingByte)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzLoad(t, data, func(s *Store) error {
			fp, sims, err := s.LoadSimSet("x")
			if err == nil {
				if err := s.SaveSimSet("y", fp, sims); err != nil {
					t.Fatal(err)
				}
				if again, _ := os.ReadFile(s.path("y")); !bytes.Equal(again, data) {
					t.Fatalf("accepted %d bytes that re-save to %d other bytes", len(data), len(again))
				}
			}
			return err
		})
	})
}

// FuzzLoadDecomposition covers the dec- objects the campaign server reads
// back: a core sized by its claimed shape, then the same matrix list.
func FuzzLoadDecomposition(f *testing.F) {
	core := tensor.NewDense(tensor.Shape{2, 1})
	valid := savedBytes(f, func(s *Store) error {
		return s.SaveDecomposition("seed", tucker.Decomposition{
			Core:    core,
			Factors: []*mat.Matrix{mat.FromSlice(2, 2, []float64{1, 2, 3, 4}), mat.New(3, 1)},
		})
	})
	factorsAt := headerLen + 4 + 8*core.Shape.Order() + 8*len(core.Data)
	f.Add(valid)
	f.Add(valid[:factorsAt+6])
	f.Add(claimMatrixDims(valid, factorsAt+4))
	// The same claim one level up: a core of 2²⁰ × 2²⁰ cells.
	hugeCore := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(hugeCore[headerLen+4:], 1<<20)
	binary.LittleEndian.PutUint64(hugeCore[headerLen+12:], 1<<20)
	f.Add(hugeCore)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzLoad(t, data, func(s *Store) error {
			d, err := s.LoadDecomposition("x")
			if err == nil && len(d.Core.Data) != d.Core.Shape.NumElements() {
				t.Fatalf("loaded a core of shape %v over %d values", d.Core.Shape, len(d.Core.Data))
			}
			return err
		})
	})
}
