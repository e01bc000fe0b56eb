// Package store is a small block-based tensor store inspired by the
// TensorDB line of work the paper builds on (its references [17], [22]):
// ensemble tensors and Tucker decompositions are persisted to disk in a
// chunked binary format with checksums, under a named catalog directory.
//
// Large ensemble tensors are written and read block-by-block (BlockSize
// cells at a time), so the store streams rather than buffering whole
// tensors in an encoder, and every file carries a CRC32 footer that Load
// verifies before returning data.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/mat"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// BlockSize is the number of cells per storage block.
const BlockSize = 4096

const (
	magic   = "M2TDSTOR"
	version = uint32(1)
)

// Kinds of stored objects.
const (
	kindSparse = uint8(1)
	// 2 was the dense tensor kind; nothing has written one since the
	// ground truth stopped being stored, and nothing reads one.
	kindTucker   = uint8(3)
	kindSimSet   = uint8(4)
	kindMatrices = uint8(5)
	kindBlob     = uint8(6)
)

// ErrCorrupt is returned when a file fails checksum or structural
// validation.
var ErrCorrupt = errors.New("store: corrupt tensor file")

// ErrNotFound is returned when a named object does not exist.
var ErrNotFound = errors.New("store: object not found")

// Store is a directory-backed tensor catalog.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a store rooted at dir. Orphaned
// temporary files left behind by a crash mid-write (the atomic
// temp+rename protocol means a partially written `.tmp-*` file is the
// only possible debris — named objects are always complete) are swept on
// open, so a catalog that survived a kill -9 comes back clean.
//
// Catalogs are shared between live processes (the distributed runtime's
// coordinator and every worker open the same directory), so the sweep is
// pid-aware: temp files are named `.tmp-<pid>-*`, and Open removes one
// only when its writing process is no longer alive. A worker opening the
// catalog mid-campaign therefore never deletes another worker's
// in-flight write; only genuine debris from killed processes is
// collected.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return OpenExisting(dir)
}

// OpenExisting is Open for a directory that must already exist: it creates
// nothing, so a path a peer sent (a distnet task frame's catalog) that names
// no directory is an error, never a new directory.
func OpenExisting(dir string) (*Store, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-") && sweepable(e.Name()) {
			// Best-effort: a concurrent writer may have renamed it away.
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &Store{dir: dir}, nil
}

// sweepable reports whether an orphan-sweep may remove the temp file:
// yes when its embedded writer pid is dead, or when the name predates
// the pid-tagged scheme entirely (nothing live can be writing it through
// this package).
func sweepable(name string) bool {
	rest := strings.TrimPrefix(name, ".tmp-")
	pidStr, _, ok := strings.Cut(rest, "-")
	if !ok {
		return true // legacy `.tmp-<random>` name: no owner to respect
	}
	pid, err := strconv.Atoi(pidStr)
	if err != nil || pid <= 0 {
		return true
	}
	return !pidAlive(pid)
}

// pidAlive reports whether a process with the given pid exists, via the
// POSIX null-signal probe. EPERM means the process exists but belongs to
// another user — still alive for sweep purposes.
func pidAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = p.Signal(syscall.Signal(0))
	if err == nil {
		return true
	}
	return errors.Is(err, syscall.EPERM)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validateName rejects names that would escape the catalog directory.
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty object name")
	}
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("store: invalid object name %q", name)
	}
	return nil
}

func (s *Store) path(name string) string {
	return filepath.Join(s.dir, name+".m2td")
}

// List returns the names of all stored objects, sorted.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".m2td") {
			continue
		}
		names = append(names, strings.TrimSuffix(e.Name(), ".m2td"))
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes a stored object.
func (s *Store) Delete(name string) error {
	if err := validateName(name); err != nil {
		return err
	}
	err := os.Remove(s.path(name))
	if os.IsNotExist(err) {
		return ErrNotFound
	}
	return err
}

// crcWriter wraps a writer, checksumming everything written.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func newCRCWriter(w io.Writer) *crcWriter {
	return &crcWriter{w: w, crc: crc32.NewIEEE()}
}

// Write implements io.Writer, updating the running checksum.
func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	return n, err
}

// crcReader wraps a reader, checksumming everything read.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func newCRCReader(r io.Reader) *crcReader {
	return &crcReader{r: r, crc: crc32.NewIEEE()}
}

// Read implements io.Reader, updating the running checksum.
func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

// writeFile writes an object atomically: header, body via fn, CRC footer,
// then rename into place.
func (s *Store) writeFile(name string, kind uint8, fn func(w io.Writer) error) error {
	if err := validateName(name); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, fmt.Sprintf(".tmp-%d-*", os.Getpid()))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)

	bw := bufio.NewWriter(tmp)
	cw := newCRCWriter(bw)
	if _, err := cw.Write([]byte(magic)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := binary.Write(cw, binary.LittleEndian, version); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := binary.Write(cw, binary.LittleEndian, kind); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := fn(cw); err != nil {
		tmp.Close()
		return err
	}
	// Footer: CRC of everything before it (not checksummed itself).
	if err := binary.Write(bw, binary.LittleEndian, cw.crc.Sum32()); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return os.Rename(tmpName, s.path(name))
}

// readFile opens an object, validates magic/version/kind, passes fn the
// body reader and the file's size (the most a decoder may size anything
// by), and verifies the CRC footer afterwards.
func (s *Store) readFile(name string, wantKind uint8, fn func(r io.Reader, size int64) error) error {
	if err := validateName(name); err != nil {
		return err
	}
	f, err := os.Open(s.path(name))
	if os.IsNotExist(err) {
		return ErrNotFound
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if st.Size() < int64(len(magic))+4+1+4 {
		return ErrCorrupt
	}
	body := io.LimitReader(f, st.Size()-4)
	// No larger a buffer than the object: most are a few hundred bytes.
	cr := newCRCReader(bufio.NewReaderSize(body, int(min(st.Size(), 4096))))

	head := make([]byte, len(magic))
	if _, err := io.ReadFull(cr, head); err != nil || string(head) != magic {
		return ErrCorrupt
	}
	var ver uint32
	if err := binary.Read(cr, binary.LittleEndian, &ver); err != nil || ver != version {
		return ErrCorrupt
	}
	var kind uint8
	if err := binary.Read(cr, binary.LittleEndian, &kind); err != nil {
		return ErrCorrupt
	}
	if kind != wantKind {
		return fmt.Errorf("store: object %q has kind %d, want %d", name, kind, wantKind)
	}
	if err := fn(cr, st.Size()); err != nil {
		return err
	}
	// Drain any remaining body bytes into the checksum (robustness against
	// partial readers), then verify the footer.
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return ErrCorrupt
	}
	var want uint32
	if err := binary.Read(f, binary.LittleEndian, &want); err != nil {
		return ErrCorrupt
	}
	if cr.crc.Sum32() != want {
		return ErrCorrupt
	}
	return nil
}

// Checksum returns a stored object's CRC32 footer — the checksum of its
// whole encoding, so equal contents have equal checksums — without reading
// the body. The distributed runtime names a job's artifacts after its
// inputs' checksums; nothing is verified here (Load does that).
func (s *Store) Checksum(name string) (uint32, error) {
	if err := validateName(name); err != nil {
		return 0, err
	}
	f, err := os.Open(s.path(name))
	if os.IsNotExist(err) {
		return 0, ErrNotFound
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var foot [4]byte
	if st, err := f.Stat(); err != nil || st.Size() < int64(len(magic))+4+1+4 {
		return 0, ErrCorrupt
	} else if _, err := f.ReadAt(foot[:], st.Size()-4); err != nil {
		return 0, ErrCorrupt
	}
	return binary.LittleEndian.Uint32(foot[:]), nil
}

// writeShape / readShape serialise tensor shapes.
func writeShape(w io.Writer, shape tensor.Shape) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(shape))); err != nil {
		return err
	}
	for _, d := range shape {
		if err := binary.Write(w, binary.LittleEndian, uint64(d)); err != nil {
			return err
		}
	}
	return nil
}

func readShape(r io.Reader) (tensor.Shape, error) {
	var order uint32
	if err := binary.Read(r, binary.LittleEndian, &order); err != nil {
		return nil, ErrCorrupt
	}
	if order > 64 {
		return nil, ErrCorrupt
	}
	shape := make(tensor.Shape, order)
	for i := range shape {
		var d uint64
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return nil, ErrCorrupt
		}
		if d > 1<<40 {
			return nil, ErrCorrupt
		}
		shape[i] = int(d)
	}
	return shape, nil
}

// sparseCellBytes is the encoded size of one order-N cell: N uint32
// indices and one float64 value.
func sparseCellBytes(order int) int { return 4*order + 8 }

// SaveSparse stores a sparse tensor in blocks of BlockSize cells: a uint32
// cell count, then the packed cells — encoded into one reused buffer and
// handed to the writer (and the checksum) in one Write per block.
func (s *Store) SaveSparse(name string, t *tensor.Sparse) error {
	if t == nil {
		return fmt.Errorf("store: SaveSparse %q: nil tensor", name)
	}
	return s.writeFile(name, kindSparse, func(w io.Writer) error {
		if err := writeShape(w, t.Shape); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		nnz := t.NNZ()
		if err := binary.Write(w, binary.LittleEndian, uint64(nnz)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		order := t.Order()
		buf := make([]byte, 4+min(nnz, BlockSize)*sparseCellBytes(order))
		for start := 0; start < nnz; start += BlockSize {
			end := min(start+BlockSize, nnz)
			binary.LittleEndian.PutUint32(buf, uint32(end-start))
			at := 4
			for e := start; e < end; e++ {
				for _, i := range t.Idx[e*order : (e+1)*order] {
					binary.LittleEndian.PutUint32(buf[at:], uint32(i))
					at += 4
				}
				binary.LittleEndian.PutUint64(buf[at:], math.Float64bits(t.Vals[e]))
				at += 8
			}
			if _, err := w.Write(buf[:at]); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
		return nil
	})
}

// LoadSparse reads a sparse tensor saved with SaveSparse, one block per
// read. The claimed cell count is checked against what the file can hold
// before anything is sized by it: a corrupt header is never an allocation.
func (s *Store) LoadSparse(name string) (*tensor.Sparse, error) {
	var out *tensor.Sparse
	err := s.readFile(name, kindSparse, func(r io.Reader, size int64) error {
		shape, err := readShape(r)
		if err != nil {
			return err
		}
		var nnz uint64
		if err := binary.Read(r, binary.LittleEndian, &nnz); err != nil {
			return ErrCorrupt
		}
		order := shape.Order()
		cell := sparseCellBytes(order)
		if nnz > uint64(size)/uint64(cell) {
			return ErrCorrupt
		}
		t := tensor.NewSparse(shape)
		t.Reserve(int(nnz))
		// One block's scratch; a count is bounded by nnz, so by the file.
		var buf []byte
		var idx []int
		var vals []float64
		for read := uint64(0); read < nnz; {
			var count uint32
			if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
				return ErrCorrupt
			}
			if count == 0 || uint64(count) > nnz-read {
				return ErrCorrupt
			}
			n := int(count)
			if cap(vals) < n {
				buf, idx, vals = make([]byte, n*cell), make([]int, n*order), make([]float64, n)
			}
			if _, err := io.ReadFull(r, buf[:n*cell]); err != nil {
				return ErrCorrupt
			}
			at := 0
			for c := 0; c < n; c++ {
				for k, d := range shape {
					i := int(binary.LittleEndian.Uint32(buf[at:]))
					if i >= d {
						return ErrCorrupt
					}
					idx[c*order+k] = i
					at += 4
				}
				vals[c] = math.Float64frombits(binary.LittleEndian.Uint64(buf[at:]))
				at += 8
			}
			t.AppendBlock(idx[:n*order], vals[:n])
			read += uint64(count)
		}
		out = t
		return nil
	})
	return out, err
}

// SaveSimSet stores a completed-simulation set — the checkpoint unit of
// the fault-tolerant pipeline runtime: a fingerprint identifying the
// generating configuration plus each completed simulation's per-timestamp
// cell values, keyed by the simulation's parameter-grid key. Entries are
// written in ascending key order so identical sets produce identical
// bytes — each one (key, length, cells) encoded into one reused buffer and
// handed to the writer in one Write — and the file inherits the store's
// atomic temp+rename+CRC protocol: a crash mid-save can never corrupt the
// previous checkpoint.
func (s *Store) SaveSimSet(name, fingerprint string, sims map[int][]float64) error {
	return s.writeFile(name, kindSimSet, func(w io.Writer) error {
		keys := make([]int, 0, len(sims))
		for k := range sims {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		buf := make([]byte, 0, 4+len(fingerprint)+8)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fingerprint)))
		buf = append(buf, fingerprint...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(keys)))
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, k := range keys {
			cells := sims[k]
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(k))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cells)))
			for _, v := range cells {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
		return nil
	})
}

// LoadSimSet reads a simulation set saved with SaveSimSet, returning its
// configuration fingerprint and completed-simulation map. Every claimed
// length is checked against what the file can hold before anything is
// sized by it. Only SaveSimSet's own encoding is accepted: keys must be
// strictly ascending (a repeated key is ErrCorrupt, not a silent
// overwrite) and nothing may follow the last entry, so an accepted file
// re-saves to the same bytes.
func (s *Store) LoadSimSet(name string) (string, map[int][]float64, error) {
	var (
		fingerprint string
		sims        map[int][]float64
	)
	err := s.readFile(name, kindSimSet, func(r io.Reader, size int64) error {
		var fpLen uint32
		if err := binary.Read(r, binary.LittleEndian, &fpLen); err != nil || fpLen > 1<<16 {
			return ErrCorrupt
		}
		fp := make([]byte, fpLen)
		if _, err := io.ReadFull(r, fp); err != nil {
			return ErrCorrupt
		}
		fingerprint = string(fp)
		var head [12]byte // one entry's key and length
		var count uint64
		if err := binary.Read(r, binary.LittleEndian, &count); err != nil || count > uint64(size)/uint64(len(head)) {
			return ErrCorrupt
		}
		sims = make(map[int][]float64, count)
		var buf []byte
		var prev uint64
		for i := uint64(0); i < count; i++ {
			if _, err := io.ReadFull(r, head[:]); err != nil {
				return ErrCorrupt
			}
			key := binary.LittleEndian.Uint64(head[:8])
			n := binary.LittleEndian.Uint32(head[8:])
			if key > 1<<62 || (i > 0 && key <= prev) || uint64(n) > uint64(size)/8 {
				return ErrCorrupt
			}
			prev = key
			need := 8 * int(n)
			if cap(buf) < need {
				buf = make([]byte, need)
			}
			buf = buf[:need]
			if _, err := io.ReadFull(r, buf); err != nil {
				return ErrCorrupt
			}
			cells := make([]float64, n)
			for c := range cells {
				cells[c] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*c:]))
			}
			sims[int(key)] = cells
		}
		if _, err := io.ReadFull(r, head[:1]); err != io.EOF {
			return ErrCorrupt
		}
		return nil
	})
	if err != nil {
		return "", nil, err
	}
	return fingerprint, sims, nil
}

// float64sFit reports whether a file of the given size can hold the
// product of dims float64 values — what every dense decoder checks before
// it sizes anything by a claimed dimension, so a corrupt header is
// ErrCorrupt, never an allocation (the CRC is only known at the end).
func float64sFit(size int64, dims ...int) bool {
	room := size / 8
	for _, d := range dims {
		if d == 0 {
			return true
		}
		room /= int64(d)
	}
	return room >= 1
}

// writeMatrices / readMatrices serialise an ordered matrix list — a uint32
// count, then each matrix as rows, cols and its row-major data — for the
// two object kinds that hold one. readMatrices accepts at most `most`
// matrices, each no larger than the file.
func writeMatrices(w io.Writer, ms []*mat.Matrix) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ms))); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, m := range ms {
		if err := binary.Write(w, binary.LittleEndian, [2]uint64{uint64(m.Rows), uint64(m.Cols)}); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := binary.Write(w, binary.LittleEndian, m.Data); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

func readMatrices(r io.Reader, size int64, most uint32) ([]*mat.Matrix, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil || n > most {
		return nil, ErrCorrupt
	}
	ms := make([]*mat.Matrix, n)
	// The values are decoded through one small chunk, not a copy of each
	// matrix's bytes.
	chunk := make([]byte, 512)
	for i := range ms {
		var dims [2]uint64
		if err := binary.Read(r, binary.LittleEndian, &dims); err != nil {
			return nil, ErrCorrupt
		}
		if dims[0] > 1<<24 || dims[1] > 1<<24 || !float64sFit(size, int(dims[0]), int(dims[1])) {
			return nil, ErrCorrupt
		}
		ms[i] = mat.New(int(dims[0]), int(dims[1]))
		for data := ms[i].Data; len(data) > 0; {
			b := chunk[:8*min(len(data), len(chunk)/8)]
			if _, err := io.ReadFull(r, b); err != nil {
				return nil, ErrCorrupt
			}
			for j := range len(b) / 8 {
				data[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
			}
			data = data[len(b)/8:]
		}
	}
	return ms, nil
}

// SaveMatrices stores an ordered list of dense matrices — the artifact
// unit the distributed runtime uses for factor matrices and Gram
// matrices. Like every object it inherits the atomic temp+rename+CRC
// protocol, so a reader either sees the complete list or ErrNotFound.
func (s *Store) SaveMatrices(name string, ms []*mat.Matrix) error {
	return s.writeFile(name, kindMatrices, func(w io.Writer) error {
		return writeMatrices(w, ms)
	})
}

// LoadMatrices reads a matrix list saved with SaveMatrices.
func (s *Store) LoadMatrices(name string) ([]*mat.Matrix, error) {
	var out []*mat.Matrix
	err := s.readFile(name, kindMatrices, func(r io.Reader, size int64) (err error) {
		out, err = readMatrices(r, size, 256)
		return err
	})
	return out, err
}

// SaveDecomposition stores a Tucker decomposition (core plus factors).
func (s *Store) SaveDecomposition(name string, d tucker.Decomposition) error {
	if d.Core == nil {
		return fmt.Errorf("store: SaveDecomposition %q: nil core", name)
	}
	return s.writeFile(name, kindTucker, func(w io.Writer) error {
		if err := writeShape(w, d.Core.Shape); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := binary.Write(w, binary.LittleEndian, d.Core.Data); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return writeMatrices(w, d.Factors)
	})
}

// LoadDecomposition reads a decomposition saved with SaveDecomposition.
func (s *Store) LoadDecomposition(name string) (tucker.Decomposition, error) {
	var out tucker.Decomposition
	err := s.readFile(name, kindTucker, func(r io.Reader, size int64) error {
		shape, err := readShape(r)
		if err != nil {
			return err
		}
		if !float64sFit(size, shape...) {
			return ErrCorrupt
		}
		core := tensor.NewDense(shape)
		if err := binary.Read(r, binary.LittleEndian, core.Data); err != nil {
			return ErrCorrupt
		}
		factors, err := readMatrices(r, size, 64)
		if err != nil {
			return err
		}
		ranks := make([]int, len(factors))
		for i, f := range factors {
			ranks[i] = f.Cols
		}
		out = tucker.Decomposition{Core: core, Factors: factors, Ranks: ranks}
		return nil
	})
	return out, err
}
