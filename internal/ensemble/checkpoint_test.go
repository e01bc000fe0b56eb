package ensemble

import (
	"testing"
	"time"

	"repro/internal/store"
)

// TestCheckpointSaveInFlightRule pins the session's save protocol: note
// hands out a snapshot when Every completions have accumulated, at most
// one save is in flight (a save that comes due meanwhile is handed out by
// the first note after the in-flight one lands, carrying everything), and
// flush waits for the in-flight save so the final set is the last write.
func TestCheckpointSaveInFlightRule(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sess := (&Checkpoint{Store: st, Fingerprint: "fp", Every: 2}).session("sub1")

	if snap := sess.note(0, []float64{0}); snap != nil {
		t.Fatal("snapshot handed out before Every completions")
	}
	first := sess.note(1, []float64{1})
	if len(first) != 2 {
		t.Fatalf("due save carries %d sims, want 2", len(first))
	}
	// Two more completions come due while the first save is in flight.
	for k := 2; k < 4; k++ {
		if snap := sess.note(k, []float64{float64(k)}); snap != nil {
			t.Fatalf("second save handed out at sim %d while the first is in flight", k)
		}
	}

	flushed := make(chan error, 1)
	go func() { flushed <- sess.flush() }()
	select {
	case <-flushed:
		t.Fatal("flush returned while a save was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	sess.save(first)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if _, sims, err := st.LoadSimSet("sub1-sims"); err != nil || len(sims) != 4 {
		t.Fatalf("after flush the checkpoint holds %d sims (err %v), want all 4", len(sims), err)
	}

	// The flush reset the dirty counter; the next due save is handed out
	// again and carries the whole set, not the delta.
	sess.note(4, []float64{4})
	if snap := sess.note(5, []float64{5}); len(snap) != 6 {
		t.Fatalf("next due save carries %d sims, want 6", len(snap))
	}
}
