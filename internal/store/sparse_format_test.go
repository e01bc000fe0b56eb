package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// referenceSparseFile is the sparse encoder the store shipped with before
// the block codec — one binary.Write per scalar — kept as the format's
// reference: it returns the complete file (common header, body, CRC
// footer) SaveSparse must reproduce byte for byte, and it is the stand-in
// for "a file written by an older build" in the decoder tests.
func referenceSparseFile(t *tensor.Sparse) []byte {
	var b bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	b.WriteString(magic)
	put(version)
	put(kindSparse)
	put(uint32(len(t.Shape)))
	for _, d := range t.Shape {
		put(uint64(d))
	}
	nnz := t.NNZ()
	put(uint64(nnz))
	for start := 0; start < nnz; start += BlockSize {
		end := min(start+BlockSize, nnz)
		put(uint32(end - start))
		for e := start; e < end; e++ {
			idx, v := t.Entry(e)
			for _, i := range idx {
				put(uint32(i))
			}
			put(v)
		}
	}
	put(crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// reseal recomputes the CRC footer after a deliberate patch, so the
// decoder's structural checks are what rejects the file, not the checksum.
func reseal(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	return data
}

var formatShapes = map[int]tensor.Shape{1: {3*BlockSize + 7}, 5: {5, 5, 5, 5, 20}}

// formatTensor builds n distinct cells of the given order with seeded
// values; cell n/2 holds a NaN, which the format stores like any value.
func formatTensor(order, n int) *tensor.Sparse {
	shape := formatShapes[order]
	rng := rand.New(rand.NewSource(int64(1000*order + n)))
	t := tensor.NewSparse(shape)
	idx := make([]int, order)
	for i := 0; i < n; i++ {
		shape.MultiIndex(i, idx)
		v := rng.NormFloat64()
		if i == n/2 {
			v = math.NaN()
		}
		t.Append(idx, v)
	}
	return t
}

// blockOffset is the file offset of block b's count field.
func blockOffset(order, b int) int {
	return len(magic) + 4 + 1 + 4 + 8*order + 8 + b*(4+BlockSize*sparseCellBytes(order))
}

func loadRaw(t *testing.T, data []byte) (*tensor.Sparse, error) {
	t.Helper()
	s := testStore(t)
	if err := os.WriteFile(filepath.Join(s.Dir(), "x.m2td"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return s.LoadSparse("x")
}

// TestSparseFormatIdentity pins the on-disk format across the codec
// rewrite in both directions: SaveSparse writes exactly the reference
// encoder's bytes, and LoadSparse reads the reference encoder's bytes back
// to exactly the tensor — at every block-boundary cell count.
func TestSparseFormatIdentity(t *testing.T) {
	for _, order := range []int{1, 5} {
		for _, n := range []int{0, 1, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 7} {
			t.Run(fmt.Sprintf("order=%d/cells=%d", order, n), func(t *testing.T) {
				orig := formatTensor(order, n)
				if orig.NNZ() != n {
					t.Fatalf("fixture has %d cells, want %d", orig.NNZ(), n)
				}
				want := referenceSparseFile(orig)

				s := testStore(t)
				if err := s.SaveSparse("x", orig); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(s.Dir(), "x.m2td"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("SaveSparse wrote %d bytes that differ from the reference encoder's %d", len(got), len(want))
				}

				back, err := loadRaw(t, want)
				if err != nil {
					t.Fatalf("LoadSparse(reference bytes): %v", err)
				}
				if !back.Shape.Equal(orig.Shape) || len(back.Idx) != len(orig.Idx) || len(back.Vals) != n {
					t.Fatalf("loaded shape %v with %d cells, want %v with %d", back.Shape, len(back.Vals), orig.Shape, n)
				}
				for i := range orig.Idx {
					if back.Idx[i] != orig.Idx[i] {
						t.Fatalf("Idx[%d] = %d, want %d", i, back.Idx[i], orig.Idx[i])
					}
				}
				for e := range orig.Vals {
					if math.Float64bits(back.Vals[e]) != math.Float64bits(orig.Vals[e]) {
						t.Fatalf("Vals[%d] = %v, want %v", e, back.Vals[e], orig.Vals[e])
					}
				}
				if cap(back.Vals) != n || cap(back.Idx) != n*order {
					t.Fatalf("loaded storage not sized exactly: cap %d/%d for %d cells", cap(back.Vals), cap(back.Idx), n)
				}
			})
		}
	}
}

// TestSparseBlockDecoderRejectsDamage damages a four-block file at the
// places the block decoder has to get right; every variant is ErrCorrupt.
func TestSparseBlockDecoderRejectsDamage(t *testing.T) {
	const order, blocks = 5, 4
	valid := referenceSparseFile(formatTensor(order, 3*BlockSize+7))
	if _, err := loadRaw(t, valid); err != nil {
		t.Fatalf("undamaged file: %v", err)
	}
	nnzAt := blockOffset(order, 0) - 8
	damaged := map[string][]byte{}
	for b := 0; b <= blocks; b++ {
		// b == blocks is one past the last full-size block slot; the file
		// ends before it, so clamp to the body's end.
		at := min(blockOffset(order, b), len(valid)-4)
		for _, d := range []int{-1, 0, 1} {
			damaged[fmt.Sprintf("cut at block %d%+d", b, d)] = append([]byte(nil), valid[:at+d]...)
		}
	}
	patch := func(name string, at int, v any, seal bool) {
		data := append([]byte(nil), valid...)
		switch v := v.(type) {
		case uint32:
			binary.LittleEndian.PutUint32(data[at:], v)
		case uint64:
			binary.LittleEndian.PutUint64(data[at:], v)
		case byte:
			data[at] ^= v
		}
		if seal {
			reseal(data)
		}
		damaged[name] = data
	}
	patch("flipped bit in block 2", blockOffset(order, 2)+4+100*sparseCellBytes(order)+21, byte(0x10), false)
	patch("out-of-range index", blockOffset(order, 1)+4+7*sparseCellBytes(order)+4*4, uint32(20), true)
	patch("index 2^32-1", blockOffset(order, 3)+4, uint32(math.MaxUint32), true)
	patch("nnz one too many", nnzAt, uint64(3*BlockSize+8), true)
	patch("nnz 2^40", nnzAt, uint64(1)<<40, true)
	patch("block count one too many", blockOffset(order, 3), uint32(8), true)
	patch("block count 2^32-1", blockOffset(order, 0), uint32(math.MaxUint32), true)
	patch("block count zero", blockOffset(order, 1), uint32(0), true)
	for name, data := range damaged {
		if _, err := loadRaw(t, data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestSparseInflatedHeaderAllocatesNothing: a cell count the file cannot
// hold must be rejected before anything is sized by it. The 53-byte file
// below claims 2^40 cells (a 2^40-cell Reserve would be 16 TB).
func TestSparseInflatedHeaderAllocatesNothing(t *testing.T) {
	one := tensor.NewSparse(tensor.Shape{4})
	one.Append([]int{2}, 1.5)
	for name, patch := range map[string]func(data []byte){
		"nnz":   func(data []byte) { binary.LittleEndian.PutUint64(data[blockOffset(1, 0)-8:], 1<<40) },
		"count": func(data []byte) { binary.LittleEndian.PutUint32(data[blockOffset(1, 0):], math.MaxUint32) },
	} {
		data := referenceSparseFile(one)
		patch(data)
		s := testStore(t)
		if err := os.WriteFile(filepath.Join(s.Dir(), "x.m2td"), reseal(data), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := s.LoadSparse("x")
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("inflated %s: got %v, want ErrCorrupt", name, err)
		}
		// The open file, the 4 KiB bufio reader and the shape are all a
		// rejected load may cost.
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Fatalf("inflated %s: rejected load allocated %d bytes", name, got)
		}
	}
}
