package store

import (
	"encoding/binary"
	"fmt"
	"io"
)

// maxBlobSize bounds LoadBlob allocations against corrupt length headers.
const maxBlobSize = 1 << 30

// SaveBlob stores an opaque byte payload — the catalog's escape hatch for
// small structured metadata (the campaign server persists JSON result
// headers next to their decompositions with it). Blobs inherit the
// store's atomic temp+rename+CRC protocol like every other kind: a reader
// sees the complete payload or ErrNotFound, never a torn write.
func (s *Store) SaveBlob(name string, data []byte) error {
	return s.writeFile(name, kindBlob, func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, uint64(len(data))); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := w.Write(data); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return nil
	})
}

// LoadBlob reads a payload saved with SaveBlob.
func (s *Store) LoadBlob(name string) ([]byte, error) {
	var out []byte
	err := s.readFile(name, kindBlob, func(r io.Reader, _ int64) error {
		var n uint64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil || n > maxBlobSize {
			return ErrCorrupt
		}
		out = make([]byte, n)
		if _, err := io.ReadFull(r, out); err != nil {
			return ErrCorrupt
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
