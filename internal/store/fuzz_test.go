package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
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
