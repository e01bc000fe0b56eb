package distnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte(`{"worker":3}`), bytes.Repeat([]byte("x"), 1<<16)}
	for ft := frameHello; ft <= frameShutdown; ft++ {
		for _, p := range payloads {
			var buf bytes.Buffer
			if err := writeFrame(&buf, ft, p); err != nil {
				t.Fatalf("write type %d: %v", ft, err)
			}
			gt, gp, err := readFrame(&buf)
			if err != nil {
				t.Fatalf("read type %d: %v", ft, err)
			}
			if gt != ft || !bytes.Equal(gp, p) {
				t.Fatalf("roundtrip type %d: got type %d payload %d bytes", ft, gt, len(gp))
			}
		}
	}
}

func TestFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameTask, make([]byte, maxFramePayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	base := func() []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, frameResult, []byte(`{"id":"p2-j0"}`)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Flipping any single byte must surface as an error — errBadFrame for
	// magic/CRC/type damage, a truncation error when the flipped length
	// promises more bytes than exist — never as a silent misparse.
	for pos := 0; pos < len(base()); pos++ {
		raw := base()
		raw[pos] ^= 0x40
		if _, _, err := readFrame(bytes.NewReader(raw)); err == nil {
			t.Fatalf("flip at byte %d read successfully", pos)
		}
	}
}

func TestFrameTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameHeartbeat, []byte(`{"worker":1}`)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		_, _, err := readFrame(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation to %d bytes read successfully", cut)
		}
		if cut > 9 && !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation to %d bytes: got %v, want truncated-frame error", cut, err)
		}
	}
}

func TestFrameRejectsUnknownType(t *testing.T) {
	for _, ft := range []frameType{0, frameShutdown + 1, 200} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, ft, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readFrame(&buf); !errors.Is(err, errBadFrame) {
			t.Fatalf("type %d: got %v, want errBadFrame", ft, err)
		}
	}
}

// countingWriter records every Write call it receives.
type countingWriter struct {
	calls int
	buf   bytes.Buffer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	return c.buf.Write(p)
}

// TestWriteFrameIsOneWrite: the sockets are TCP_NODELAY, so a frame
// written in pieces leaves as several segments. One frame, one Write — and
// the bytes are the documented layout.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte(`{"id":"p2-j0"}`), bytes.Repeat([]byte("x"), maxFramePayload)} {
		var w countingWriter
		if err := writeFrame(&w, frameResult, payload); err != nil {
			t.Fatal(err)
		}
		if w.calls != 1 {
			t.Fatalf("%d-byte payload: %d Write calls, want 1", len(payload), w.calls)
		}
		want := append([]byte(frameMagic), byte(frameResult))
		want = binary.LittleEndian.AppendUint32(want, uint32(len(payload)))
		want = append(want, payload...)
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want[4:]))
		if !bytes.Equal(w.buf.Bytes(), want) {
			t.Fatalf("%d-byte payload: frame bytes differ from the documented layout", len(payload))
		}
	}
}

// TestReadFrameAllocationBound: a frame header is outside input, so the
// length it claims may size at most one payload buffer — and nothing at
// all once it exceeds maxFramePayload.
func TestReadFrameAllocationBound(t *testing.T) {
	header := func(n uint32) []byte {
		h := append([]byte(frameMagic), byte(frameTask))
		return binary.LittleEndian.AppendUint32(h, n)
	}
	for _, tc := range []struct {
		claim uint32
		limit uint64
	}{
		{maxFramePayload + 1, 1 << 10},
		{math.MaxUint32, 1 << 10},
		// Truncated: the one buffer is sized (the allocator rounds it up
		// to whole pages), then the read fails.
		{maxFramePayload, maxFramePayload + 16<<10},
	} {
		r := bytes.NewReader(header(tc.claim))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := readFrame(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("claim %d: header-only frame read successfully", tc.claim)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.limit {
			t.Fatalf("claim %d: readFrame allocated %d bytes, limit %d", tc.claim, got, tc.limit)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder — the
// coordinator's and the workers' trust boundary. It must return an error
// or a frame with a valid type and a bounded payload whose re-encoding is
// exactly the bytes consumed; it must never panic.
func FuzzReadFrame(f *testing.F) {
	for ft := frameHello; ft <= frameShutdown; ft++ {
		f.Add(encodeFrame(ft, []byte(`{"id":"p1-k1-m0","worker":2}`)))
	}
	valid := encodeFrame(frameTask, bytes.Repeat([]byte("y"), 300))
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), valid...))
	f.Add(append([]byte(frameMagic), byte(frameTask), 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte("M2TNgarbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		ft, payload, err := readFrame(r)
		if err != nil {
			return
		}
		if ft < frameHello || ft > frameShutdown {
			t.Fatalf("accepted frame type %d", ft)
		}
		if len(payload) > maxFramePayload {
			t.Fatalf("accepted %d-byte payload", len(payload))
		}
		consumed := data[:len(data)-r.Len()]
		if !bytes.Equal(encodeFrame(ft, payload), consumed) {
			t.Fatalf("re-encoding a type-%d frame with a %d-byte payload does not reproduce the %d bytes read", ft, len(payload), len(consumed))
		}
	})
}
