package store

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tucker"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomSparse(rng *rand.Rand, shape tensor.Shape, nnz int) *tensor.Sparse {
	total := shape.NumElements()
	if nnz > total {
		nnz = total
	}
	seen := map[int]bool{}
	s := tensor.NewSparse(shape)
	idx := make([]int, shape.Order())
	for len(seen) < nnz {
		lin := rng.Intn(total)
		if seen[lin] {
			continue
		}
		seen[lin] = true
		shape.MultiIndex(lin, idx)
		s.Append(idx, rng.NormFloat64())
	}
	return s
}

func TestSparseRoundtrip(t *testing.T) {
	s := testStore(t)
	rng := rand.New(rand.NewSource(150))
	orig := randomSparse(rng, tensor.Shape{6, 5, 4}, 40)
	if err := s.SaveSparse("ens", orig); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadSparse("ens")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Shape.Equal(orig.Shape) || got.NNZ() != orig.NNZ() {
		t.Fatalf("shape/nnz mismatch: %v/%d vs %v/%d", got.Shape, got.NNZ(), orig.Shape, orig.NNZ())
	}
	if !got.ToDense().Equal(orig.ToDense(), 0) {
		t.Fatal("values differ after roundtrip")
	}
}

func TestSparseMultiBlock(t *testing.T) {
	// More cells than one block.
	s := testStore(t)
	rng := rand.New(rand.NewSource(151))
	orig := randomSparse(rng, tensor.Shape{30, 30, 30}, BlockSize+100)
	if err := s.SaveSparse("big", orig); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadSparse("big")
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != orig.NNZ() {
		t.Fatalf("NNZ %d != %d across block boundary", got.NNZ(), orig.NNZ())
	}
	if !got.ToDense().Equal(orig.ToDense(), 0) {
		t.Fatal("multi-block roundtrip corrupted values")
	}
}

func TestDecompositionRoundtrip(t *testing.T) {
	s := testStore(t)
	rng := rand.New(rand.NewSource(153))
	x := randomSparse(rng, tensor.Shape{6, 5, 4}, 60)
	orig := tucker.HOSVD(x, []int{2, 3, 2})
	if err := s.SaveDecomposition("dec", orig); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadDecomposition("dec")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Core.Equal(orig.Core, 0) {
		t.Fatal("core corrupted")
	}
	for n := range orig.Factors {
		if !got.Factors[n].Equal(orig.Factors[n], 0) {
			t.Fatalf("factor %d corrupted", n)
		}
		if got.Ranks[n] != orig.Ranks[n] {
			t.Fatalf("rank %d = %d, want %d", n, got.Ranks[n], orig.Ranks[n])
		}
	}
	if !got.Reconstruct().Equal(orig.Reconstruct(), 1e-12) {
		t.Fatal("reconstruction differs after roundtrip")
	}
}

func TestListAndDelete(t *testing.T) {
	s := testStore(t)
	sp := tensor.NewSparse(tensor.Shape{2, 2})
	sp.Append([]int{0, 1}, 1)
	if err := s.SaveSparse("b", sp); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSparse("a", sp); err != nil {
		t.Fatal(err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("List = %v", names)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	names, _ = s.List()
	if len(names) != 1 {
		t.Fatalf("List after delete = %v", names)
	}
}

func TestLoadMissing(t *testing.T) {
	s := testStore(t)
	if _, err := s.LoadSparse("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing load: %v", err)
	}
}

func TestInvalidNames(t *testing.T) {
	s := testStore(t)
	sp := tensor.NewSparse(tensor.Shape{2})
	for _, bad := range []string{"", "..", "a/b", `a\b`} {
		if err := s.SaveSparse(bad, sp); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := testStore(t)
	rng := rand.New(rand.NewSource(154))
	orig := randomSparse(rng, tensor.Shape{5, 5}, 10)
	if err := s.SaveSparse("x", orig); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the file.
	path := filepath.Join(s.Dir(), "x.m2td")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSparse("x"); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestTruncationDetected(t *testing.T) {
	s := testStore(t)
	rng := rand.New(rand.NewSource(155))
	orig := randomSparse(rng, tensor.Shape{5, 5}, 10)
	if err := s.SaveSparse("x", orig); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "x.m2td")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSparse("x"); err == nil {
		t.Fatal("truncation not detected")
	}
}

func TestKindMismatch(t *testing.T) {
	s := testStore(t)
	sp := tensor.NewSparse(tensor.Shape{2, 2})
	sp.Append([]int{1, 1}, 3)
	if err := s.SaveSparse("x", sp); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadDecomposition("x"); err == nil {
		t.Fatal("kind mismatch not detected")
	}
}

func TestEmptySparse(t *testing.T) {
	s := testStore(t)
	if err := s.SaveSparse("empty", tensor.NewSparse(tensor.Shape{3, 3})); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadSparse("empty")
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Fatalf("empty tensor loaded with %d cells", got.NNZ())
	}
}

func TestOverwrite(t *testing.T) {
	s := testStore(t)
	a := tensor.NewSparse(tensor.Shape{2})
	a.Append([]int{0}, 1)
	b := tensor.NewSparse(tensor.Shape{2})
	b.Append([]int{1}, 2)
	if err := s.SaveSparse("x", a); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSparse("x", b); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadSparse("x")
	if err != nil {
		t.Fatal(err)
	}
	idx, v := got.Entry(0)
	if idx[0] != 1 || v != 2 {
		t.Fatal("overwrite did not replace contents")
	}
}

func TestOpenFailsOnFileCollision(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "notadir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file); err == nil {
		t.Fatal("Open over a plain file accepted")
	}
}

func TestDirAccessor(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q", s.Dir())
	}
}

func TestListFailsOnMissingDir(t *testing.T) {
	s := &Store{dir: filepath.Join(t.TempDir(), "gone")}
	if _, err := s.List(); err == nil {
		t.Fatal("List on missing dir accepted")
	}
}

func TestDeleteInvalidName(t *testing.T) {
	s := testStore(t)
	if err := s.Delete("a/b"); err == nil {
		t.Fatal("path-traversal delete accepted")
	}
}

func TestLoadWithInvalidName(t *testing.T) {
	s := testStore(t)
	if _, err := s.LoadSparse(".."); err == nil {
		t.Fatal("invalid name load accepted")
	}
}

func TestCorruptHeaderVariants(t *testing.T) {
	s := testStore(t)
	sp := tensor.NewSparse(tensor.Shape{2, 2})
	sp.Append([]int{0, 0}, 1)
	if err := s.SaveSparse("x", sp); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "x.m2td")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong magic.
	bad := append([]byte(nil), good...)
	copy(bad, "WRONGMAG")
	os.WriteFile(path, bad, 0o644)
	if _, err := s.LoadSparse("x"); err == nil {
		t.Fatal("wrong magic accepted")
	}
	// Wrong version.
	bad = append([]byte(nil), good...)
	bad[8] = 99
	os.WriteFile(path, bad, 0o644)
	if _, err := s.LoadSparse("x"); err == nil {
		t.Fatal("wrong version accepted")
	}
	// File shorter than any header.
	os.WriteFile(path, []byte("tiny"), 0o644)
	if _, err := s.LoadSparse("x"); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestDecompositionManyFactors(t *testing.T) {
	// Exercise the multi-factor encode/decode loop with a 4-mode core.
	s := testStore(t)
	rng := rand.New(rand.NewSource(156))
	x := randomSparse(rng, tensor.Shape{4, 3, 2, 5}, 50)
	orig := tucker.HOSVD(x, []int{2, 2, 2, 2})
	if err := s.SaveDecomposition("d4", orig); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadDecomposition("d4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Factors) != 4 {
		t.Fatalf("%d factors", len(got.Factors))
	}
	if !got.Core.Equal(orig.Core, 0) {
		t.Fatal("core corrupted")
	}
}

func TestLoadDecompositionWrongKind(t *testing.T) {
	s := testStore(t)
	sp := tensor.NewSparse(tensor.Shape{2})
	sp.Append([]int{0}, 1)
	if err := s.SaveSparse("sp", sp); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadDecomposition("sp"); err == nil {
		t.Fatal("sparse loaded as decomposition")
	}
	d := tucker.HOSVD(sp, []int{1})
	if err := s.SaveDecomposition("dec", d); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSparse("dec"); err == nil {
		t.Fatal("decomposition loaded as sparse")
	}
}

// TestSaveRejectsNilTensor: a nil sparse tensor (a default run's
// Decomposition.Join) or a decomposition without a core is an error, not a
// nil dereference inside the writer — and leaves no temp file behind.
func TestSaveRejectsNilTensor(t *testing.T) {
	s := testStore(t)
	if err := s.SaveSparse("join", nil); err == nil {
		t.Fatal("SaveSparse accepted a nil tensor")
	}
	if err := s.SaveDecomposition("dec", tucker.Decomposition{}); err == nil {
		t.Fatal("SaveDecomposition accepted a nil core")
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected saves left %d files behind (first: %s)", len(entries), entries[0].Name())
	}
}

// TestChecksum: an object's checksum is its footer — equal for equal
// contents under any name, different once a cell differs — read without
// decoding the body.
func TestChecksum(t *testing.T) {
	s := testStore(t)
	x := randomSparse(rand.New(rand.NewSource(7)), tensor.Shape{4, 5, 6}, 40)
	for _, name := range []string{"a", "b"} {
		if err := s.SaveSparse(name, x); err != nil {
			t.Fatal(err)
		}
	}
	y := tensor.NewSparse(x.Shape)
	y.AppendBlock(x.Idx, x.Vals)
	y.Vals[17] += 1e-9
	if err := s.SaveSparse("c", y); err != nil {
		t.Fatal(err)
	}
	sums := map[string]uint32{}
	for _, name := range []string{"a", "b", "c"} {
		sum, err := s.Checksum(name)
		if err != nil {
			t.Fatal(err)
		}
		sums[name] = sum
	}
	if sums["a"] != sums["b"] || sums["a"] == sums["c"] {
		t.Fatalf("checksums %08x, %08x (same tensor), %08x (one value moved)", sums["a"], sums["b"], sums["c"])
	}
	raw, err := os.ReadFile(filepath.Join(s.Dir(), "a.m2td"))
	if err != nil {
		t.Fatal(err)
	}
	if foot := binary.LittleEndian.Uint32(raw[len(raw)-4:]); foot != sums["a"] {
		t.Fatalf("Checksum %08x, file footer %08x", sums["a"], foot)
	}
	if _, err := s.Checksum("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: %v", err)
	}
	if _, err := s.Checksum("../a"); err == nil {
		t.Fatal("escaping name accepted")
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "stub.m2td"), []byte("M2TD"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checksum("stub"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated object: %v", err)
	}
}
