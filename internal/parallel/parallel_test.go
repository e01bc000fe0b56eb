package parallel

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// workerCounts is the satellite-mandated sweep: serial, two, the machine
// default, and more workers than items.
func workerCounts(items int) []int {
	return []int{1, 2, runtime.GOMAXPROCS(0), items + 5}
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		for _, w := range workerCounts(n) {
			t.Run("n="+strconv.Itoa(n)+"/w="+strconv.Itoa(w), func(t *testing.T) {
				hits := make([]int32, n)
				For(n, w, func(start, end int) {
					if start >= end {
						t.Errorf("empty range [%d,%d)", start, end)
					}
					for i := start; i < end; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("index %d visited %d times, want 1", i, h)
					}
				}
			})
		}
	}
}

func TestForEmptyInput(t *testing.T) {
	called := false
	For(0, 4, func(start, end int) { called = true })
	For(-3, 4, func(start, end int) { called = true })
	if called {
		t.Fatal("fn called for empty input")
	}
}

func TestForChunkBoundariesDeterministic(t *testing.T) {
	// Chunk boundaries must depend only on (n, workers): two runs record
	// identical range sets.
	record := func() map[int]int {
		out := make(map[int]int)
		var mu sync.Mutex
		For(1000, 4, func(start, end int) {
			mu.Lock()
			out[start] = end
			mu.Unlock()
		})
		return out
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("different chunk counts: %d vs %d", len(a), len(b))
	}
	for s, e := range a {
		if b[s] != e {
			t.Fatalf("chunk [%d,%d) vs [%d,%d)", s, e, s, b[s])
		}
	}
}

func TestForGrainCapsfanout(t *testing.T) {
	// n=100 with grain=100 must run in a single inline chunk.
	chunks := 0
	ForGrain(100, 8, 100, func(start, end int) {
		chunks++
		if start != 0 || end != 100 {
			t.Fatalf("expected single range [0,100), got [%d,%d)", start, end)
		}
	})
	if chunks != 1 {
		t.Fatalf("got %d chunks, want 1", chunks)
	}
}

func TestForPanicPropagation(t *testing.T) {
	for _, w := range workerCounts(64) {
		t.Run("w="+strconv.Itoa(w), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("worker panic not propagated")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "boom-42") {
					t.Fatalf("panic value %v does not carry original message", r)
				}
			}()
			For(64, w, func(start, end int) {
				if start <= 13 && 13 < end {
					panic("boom-42")
				}
			})
		})
	}
}

func TestDoRunsAllTasksAndPropagatesPanic(t *testing.T) {
	for _, w := range workerCounts(9) {
		t.Run("w="+strconv.Itoa(w), func(t *testing.T) {
			var ran [9]int32
			tasks := make([]func(), 9)
			for i := range tasks {
				i := i
				tasks[i] = func() { atomic.AddInt32(&ran[i], 1) }
			}
			Do(w, tasks...)
			for i, r := range ran {
				if r != 1 {
					t.Fatalf("task %d ran %d times, want 1", i, r)
				}
			}
		})
	}
	// Panic from one task propagates; the remaining tasks still run
	// (errgroup-style join waits for everyone).
	var after atomic.Int32
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("task panic not propagated")
			}
		}()
		Do(2,
			func() { panic("task-boom") },
			func() { after.Add(1) },
			func() { after.Add(1) },
		)
	}()
	if after.Load() != 2 {
		t.Fatalf("non-panicking tasks ran %d times, want 2", after.Load())
	}
}

func TestDoEmpty(t *testing.T) {
	Do(4) // must not deadlock or panic
}

func TestDefaultWorkers(t *testing.T) {
	// The baseline default is GOMAXPROCS unless the process was started
	// with an M2TD_WORKERS override (the CI faults job sweeps it).
	want := runtime.GOMAXPROCS(0)
	if n := envWorkers(); n > 0 {
		want = n
	}
	if got := DefaultWorkers(); got != want {
		t.Fatalf("DefaultWorkers() = %d, want %d (GOMAXPROCS or M2TD_WORKERS)", got, want)
	}
	SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("after SetDefaultWorkers(3): %d", got)
	}
	if got := Resolve(0); got != 3 {
		t.Fatalf("Resolve(0) = %d, want 3", got)
	}
	if got := Resolve(7); got != 7 {
		t.Fatalf("Resolve(7) = %d, want 7", got)
	}
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got != want {
		t.Fatalf("after reset: %d, want %d", got, want)
	}
}

func TestFanoutCapBindsAfterWorkers(t *testing.T) {
	prev := SetFanoutCap(2)
	defer SetFanoutCap(prev)
	if got := fanout(8); got != 2 {
		t.Fatalf("fanout(8) under cap 2 = %d, want 2", got)
	}
	if got := fanout(1); got != 1 {
		t.Fatalf("fanout(1) = %d, want 1", got)
	}
	SetFanoutCap(16)
	if got := fanout(8); got != 8 {
		t.Fatalf("fanout(8) under cap 16 = %d, want 8 (workers bind first)", got)
	}
	if got := fanout(0); got != Resolve(0) {
		t.Fatalf("fanout(0) = %d, want Resolve(0) = %d under a high cap", got, Resolve(0))
	}
}
