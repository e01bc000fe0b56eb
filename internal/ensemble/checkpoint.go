package ensemble

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/store"
)

// Checkpoint configures crash-safe persistence of a simulation campaign's
// progress to an internal/store catalog. Completed simulations are
// persisted periodically during the fan-out (atomic temp+rename+CRC
// writes, so a kill at any instant leaves either the previous or the new
// checkpoint intact — never a corrupt one), and a campaign skips every
// simulation a checkpoint of its own Fingerprint already holds.
//
// One sub-ensemble's completed set is stored under `<prefix>-sims`
// (prefix "sub1"/"sub2" for the PF-partitioned pair), tagged with the
// caller's Fingerprint: a checkpoint written by a different configuration
// (different system, resolution, densities, seed, …) never pollutes a
// campaign — it is ignored and overwritten.
type Checkpoint struct {
	// Store is the catalog to persist into.
	Store *store.Store
	// Fingerprint identifies the simulations (equal fingerprints, equal
	// cells); only a stored set whose fingerprint matches it is restored.
	Fingerprint string
	// Every is the number of newly completed simulations between
	// checkpoint saves (default 64). Lower values tighten the crash
	// window at the cost of more (atomic, whole-set) writes.
	Every int
}

// ckptSession is the mutable per-sub-campaign state: the completed map,
// the dirty counter, the restored set, whether a save is in flight, and
// the first save error.
type ckptSession struct {
	ck   *Checkpoint
	name string

	mu        sync.Mutex
	idle      sync.Cond // on mu: signalled when an in-flight save ends
	done      map[int][]float64
	restored  map[int][]float64
	sinceSave int
	saving    bool
	err       error
}

// session opens and restores the checkpoint state for one sub-campaign. A
// missing, corrupt, or fingerprint-mismatched checkpoint is treated as
// absent: the campaign starts fresh and overwrites it.
func (c *Checkpoint) session(prefix string) *ckptSession {
	s := &ckptSession{ck: c, name: prefix + "-sims", done: make(map[int][]float64)}
	s.idle.L = &s.mu
	// Only a readable checkpoint of this very configuration is trusted; any
	// other outcome, an I/O error included, is a fresh start.
	if fp, sims, err := c.Store.LoadSimSet(s.name); err == nil && fp == c.Fingerprint {
		s.restored = sims
		maps.Copy(s.done, sims)
	}
	return s
}

// note records one completed simulation. When a save is due — Every
// completions since the last one — and none is in flight, it returns a
// snapshot of the completed set for the caller to hand to save: the encode
// + fsync + rename never runs under the session mutex, so recording a
// completion never waits for the disk. A save that
// comes due while one is in flight is left to the next note or to flush.
func (s *ckptSession) note(key int, cells []float64) map[int][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done[key] = cells
	s.sinceSave++
	every := s.ck.Every
	if every <= 0 {
		every = 64
	}
	if s.sinceSave < every || s.saving {
		return nil
	}
	s.sinceSave = 0
	s.saving = true
	return maps.Clone(s.done)
}

// save writes a snapshot note handed out and ends the in-flight state. A
// save error is kept for flush to report (the campaign surfaces it:
// silently losing checkpoint durability would defeat the point).
func (s *ckptSession) save(snap map[int][]float64) {
	err := s.write(snap)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
	s.saving = false
	s.idle.Broadcast()
}

// flush persists the current completed set unconditionally, after any
// in-flight save has landed (so the final set is the last write), and
// returns the session's first save error. Called at campaign end and on
// cancellation, so a cooperatively cancelled run checkpoints everything it
// finished.
func (s *ckptSession) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.saving {
		s.idle.Wait()
	}
	if s.sinceSave == 0 && len(s.done) == len(s.restored) {
		return s.err // nothing new since the last save or restore
	}
	s.sinceSave = 0
	if err := s.write(s.done); s.err == nil {
		s.err = err
	}
	return s.err
}

// write persists one completed set.
func (s *ckptSession) write(sims map[int][]float64) error {
	if err := s.ck.Store.SaveSimSet(s.name, s.ck.Fingerprint, sims); err != nil {
		return fmt.Errorf("ensemble: checkpoint save: %w", err)
	}
	checkpointFlushesTotal.Inc()
	return nil
}
