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
	"reflect"
	"sort"
	"testing"
)

// referenceSimSetFile is the sim-set encoder the store shipped with before
// the block codec — three binary.Write calls per simulation — kept as the
// format's reference: it returns the complete file (common header, body,
// CRC footer) SaveSimSet must reproduce byte for byte, and it stands in
// for "a checkpoint written by an older build" in the decoder test.
func referenceSimSetFile(fingerprint string, sims map[int][]float64) []byte {
	var b bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	b.WriteString(magic)
	put(version)
	put(kindSimSet)
	put(uint32(len(fingerprint)))
	b.WriteString(fingerprint)
	keys := make([]int, 0, len(sims))
	for k := range sims {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	put(uint64(len(keys)))
	for _, k := range keys {
		put(uint64(k))
		put(uint32(len(sims[k])))
		put(sims[k])
	}
	put(crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// TestSimSetFormatIdentity pins the checkpoint format across the codec
// rewrite in both directions: SaveSimSet writes exactly the reference
// encoder's bytes, and LoadSimSet reads the reference encoder's bytes back
// to exactly the set — empty sets, empty and ragged simulations, NaN and
// signed-zero cells included.
func TestSimSetFormatIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 64, 300} {
		t.Run(fmt.Sprintf("sims=%d", n), func(t *testing.T) {
			sims := make(map[int][]float64, n)
			for i := 0; i < n; i++ {
				cells := make([]float64, i%13) // ragged, some empty
				for c := range cells {
					cells[c] = rng.NormFloat64()
				}
				if len(cells) > 2 {
					cells[0], cells[1] = math.NaN(), math.Copysign(0, -1)
				}
				sims[rng.Intn(1<<40)] = cells
			}
			fp := fmt.Sprintf("v1|fixture|n=%d", n)
			want := referenceSimSetFile(fp, sims)

			s := testStore(t)
			if err := s.SaveSimSet("x", fp, sims); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(s.path("x"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("SaveSimSet wrote %d bytes that differ from the reference encoder's %d", len(got), len(want))
			}

			if err := os.WriteFile(s.path("old"), want, 0o644); err != nil {
				t.Fatal(err)
			}
			gotFP, back, err := s.LoadSimSet("old")
			if err != nil {
				t.Fatal(err)
			}
			if gotFP != fp || len(back) != len(sims) {
				t.Fatalf("reloaded fingerprint %q with %d sims, want %q with %d", gotFP, len(back), fp, len(sims))
			}
			for k, cells := range sims {
				b := back[k]
				if len(b) != len(cells) {
					t.Fatalf("sim %d: %d cells, want %d", k, len(b), len(cells))
				}
				for c := range cells {
					if math.Float64bits(b[c]) != math.Float64bits(cells[c]) {
						t.Fatalf("sim %d cell %d: bits differ", k, c)
					}
				}
			}
		})
	}
}

// TestSimSetRejectsOversizedLengths: a length field the file cannot hold
// is rejected structurally — before it sizes an allocation — not by the
// checksum (the patched file is resealed). So is a key that does not
// ascend: a repeated key used to load as its last copy.
func TestSimSetRejectsOversizedLengths(t *testing.T) {
	sims := map[int][]float64{7: {1, 2, 3}, 9: {4}}
	countAt := len(magic) + 4 + 1 + 4 + len("fp")
	for name, patch := range map[string]func(data []byte){
		"count":          func(data []byte) { binary.LittleEndian.PutUint64(data[countAt:], 1<<39) },
		"length":         func(data []byte) { binary.LittleEndian.PutUint32(data[countAt+16:], 1<<29) },
		"repeated key":   func(data []byte) { binary.LittleEndian.PutUint64(data[countAt+8+12+3*8:], 7) },
		"descending key": func(data []byte) { binary.LittleEndian.PutUint64(data[countAt+8+12+3*8:], 5) },
	} {
		data := referenceSimSetFile("fp", sims)
		patch(data)
		s := testStore(t)
		if err := os.WriteFile(s.path("x"), reseal(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.LoadSimSet("x"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

func TestSimSetRoundTrip(t *testing.T) {
	s := testStore(t)
	sims := map[int][]float64{
		3:   {1.5, -2.25, 0},
		11:  {0.125},
		999: {},
		42:  {3, 4, 5, 6},
	}
	if err := s.SaveSimSet("sub1-sims", "fp-v1", sims); err != nil {
		t.Fatal(err)
	}
	fp, got, err := s.LoadSimSet("sub1-sims")
	if err != nil {
		t.Fatal(err)
	}
	if fp != "fp-v1" {
		t.Fatalf("fingerprint = %q, want fp-v1", fp)
	}
	if !reflect.DeepEqual(got, sims) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, sims)
	}
}

func TestSimSetOverwrite(t *testing.T) {
	s := testStore(t)
	if err := s.SaveSimSet("x", "a", map[int][]float64{1: {1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSimSet("x", "b", map[int][]float64{2: {2, 3}}); err != nil {
		t.Fatal(err)
	}
	fp, got, err := s.LoadSimSet("x")
	if err != nil {
		t.Fatal(err)
	}
	if fp != "b" || len(got) != 1 || got[2] == nil {
		t.Fatalf("overwrite not atomic/latest: fp=%q got=%v", fp, got)
	}
}

func TestSimSetNotFound(t *testing.T) {
	s := testStore(t)
	if _, _, err := s.LoadSimSet("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestSimSetCorruptionDetected(t *testing.T) {
	s := testStore(t)
	if err := s.SaveSimSet("victim", "fp", map[int][]float64{7: {1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	path := s.path("victim")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the CRC footer must catch it.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadSimSet("victim"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt after bit flip, got %v", err)
	}
}

func TestSimSetTruncationDetected(t *testing.T) {
	s := testStore(t)
	if err := s.SaveSimSet("victim", "fp", map[int][]float64{7: {1, 2, 3}, 9: {4}}); err != nil {
		t.Fatal(err)
	}
	path := s.path("victim")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadSimSet("victim"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt after truncation, got %v", err)
	}
}

func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSimSet("keep", "fp", map[int][]float64{1: {1}}); err != nil {
		t.Fatal(err)
	}
	// Plant orphaned temp files as a crashed writer would leave them.
	for _, name := range []string{".tmp-keep-123", ".tmp-dead-9"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("re-open with orphaned temp files: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name()) >= 5 && e.Name()[:5] == ".tmp-" {
			t.Fatalf("orphaned temp file %q survived Open", e.Name())
		}
	}
	// The durable object is untouched.
	fp, got, err := s2.LoadSimSet("keep")
	if err != nil || fp != "fp" || got[1] == nil {
		t.Fatalf("durable object damaged by sweep: fp=%q got=%v err=%v", fp, got, err)
	}
}
