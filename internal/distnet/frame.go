// Package distnet is the multi-process D-M2TD engine: a coordinator and
// N worker child processes executing the paper's 3-phase distributed
// decomposition (Algorithm 6) over real process boundaries, with
// phase-level fault tolerance.
//
// The division of labour keeps the network control-plane-only:
//
//   - Control plane: a hand-rolled length-prefixed, CRC-checked frame
//     protocol over localhost TCP (this file) carrying small JSON
//     messages — hello, task lease, heartbeat, result, shutdown.
//   - Data plane: the two sub-tensors, factor matrices, and every task
//     output move as internal/store objects in a shared catalog
//     directory, inheriting the store's atomic temp+rename+CRC
//     protocol. A task that finds its output already durable skips
//     recomputation, so a re-leased or resumed task costs nothing once
//     its artifact landed; an output's name carries the job's identity
//     (proto.go), so only the same campaign's artifact can be that.
//
// What runs (core.DecomposeFactored's phases; there is one route): the data
// plane carries factors and partials only — the join is not built. Phase
// 1's "factor" tasks compute one sub-tensor mode's Gram matrix and its
// leading eigenvectors, and the coordinator fuses the pivot modes
// (core.FusePivot); Phase 2 has no task; Phase 3's "project" tasks run
// core.ProjectShard, and the coordinator sums the partials, in shard order,
// to the core (core.FactoredCore). Result.Join is nil. Those are
// the only two task kinds.
//
// Fault tolerance (DESIGN.md §13): the coordinator leases one task at a
// time to each worker, tracks heartbeats against a lease deadline, and
// on worker death, lease expiry, or a corrupt frame quarantines the
// worker and re-leases only that worker's task to a survivor at once. The
// engine degrades gracefully down to a single surviving worker. A task
// error from a live worker is not a loss: it fails the phase, naming the
// task, the worker and the worker's message.
//
// Determinism contract: shard assignment (pivot key modulo the fixed
// shard count) and merge order (ascending shard index) are pure
// functions of the partition and Options.Shards — never of worker
// identity, scheduling, or timing — so the factors and the core are
// bit-identical regardless of which workers died mid-phase, and equal to
// core.DecomposeFactored's at equal Shards. Non-finite values stop at the
// coordinator's ingest; a worker that loads one anyway fails the task with
// store.ErrCorrupt naming the object, so no kernel ever sums one.
//
// Worker processes outlive the campaign (pool.go): a fleet — listener,
// processes, connections, reaper — whose campaign ended clean waits in a
// process-wide pool for the next campaign with its spawn signature, and
// every task names its job's catalog and key, so a worker serves one job
// after another.
package distnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout: magic "M2TN" (4 bytes) | type (1) | payload length
// (uint32 LE) | payload | CRC32-IEEE footer (uint32 LE) over
// type+length+payload. The magic makes cross-protocol accidents fail
// fast; the CRC makes a torn or corrupted frame a detectable event the
// coordinator can quarantine on, not silent garbage.
const frameMagic = "M2TN"

type frameType uint8

const (
	frameHello frameType = iota + 1
	frameTask
	frameResult
	frameTaskErr
	frameHeartbeat
	frameShutdown
)

// maxFramePayload bounds control messages; bulk data never crosses the
// socket (it moves through the store), so anything larger is corruption.
const maxFramePayload = 1 << 20

var errBadFrame = errors.New("distnet: corrupt frame")

// encodeFrame assembles one complete frame — header, payload, footer —
// in a single buffer.
func encodeFrame(t frameType, payload []byte) []byte {
	frame := make([]byte, 0, 9+len(payload)+4)
	frame = append(frame, frameMagic...)
	frame = append(frame, byte(t))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[4:]))
}

// writeFrame writes one frame in one Write: the sockets are TCP_NODELAY,
// so every Write is a segment. The payload is the caller's JSON message.
func writeFrame(w io.Writer, t frameType, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("distnet: frame payload %d bytes exceeds limit", len(payload))
	}
	_, err := w.Write(encodeFrame(t, payload))
	return err
}

// readFrame reads and validates one frame. Any structural violation —
// bad magic, oversized length, unknown type, CRC mismatch — returns
// errBadFrame; the peer is speaking garbage and must be quarantined.
func readFrame(r io.Reader) (frameType, []byte, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if string(hdr[:4]) != frameMagic {
		return 0, nil, errBadFrame
	}
	n := binary.LittleEndian.Uint32(hdr[5:9])
	if n > maxFramePayload {
		return 0, nil, errBadFrame
	}
	buf := make([]byte, int(n)+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("distnet: truncated frame: %w", err)
	}
	payload, foot := buf[:n], buf[n:]
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:9])
	crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(foot) {
		return 0, nil, errBadFrame
	}
	t := frameType(hdr[4])
	if t < frameHello || t > frameShutdown {
		return 0, nil, errBadFrame
	}
	return t, payload, nil
}
