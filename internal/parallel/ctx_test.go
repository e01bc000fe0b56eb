package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCtxMatchesFor: an un-cancelled ForCtx must produce exactly the
// same output as For for a kernel that partitions its output index space,
// for a sweep of worker counts.
func TestForCtxMatchesFor(t *testing.T) {
	const n = 1337
	want := make([]float64, n)
	For(n, 4, func(start, end int) {
		for i := start; i < end; i++ {
			want[i] = float64(i) * 1.5
		}
	})
	for _, w := range []int{1, 2, 3, 8, 64} {
		got := make([]float64, n)
		if err := ForCtx(context.Background(), n, w, func(start, end int) {
			for i := start; i < end; i++ {
				got[i] = float64(i) * 1.5
			}
		}); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", w, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: output mismatch at %d", w, i)
			}
		}
	}
}

// TestForCtxClaimsStrips: the workers claim strips from a shared cursor
// instead of owning a static share of the range — a first strip that
// blocks until every other strip has run must not strand the strips a
// static split would have queued behind it on the same worker.
func TestForCtxClaimsStrips(t *testing.T) {
	defer SetFanoutCap(SetFanoutCap(2))
	const n = 2 * ctxPollStrips * 4 // 2 chunks × ctxPollStrips strips of 4
	var ran atomic.Int64
	finished := make(chan error, 1)
	go func() {
		finished <- ForCtx(context.Background(), n, 2, func(start, end int) {
			if start == 0 {
				for ran.Load() < n-int64(end) {
					runtime.Gosched()
				}
			}
			ran.Add(int64(end - start))
		})
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ForCtx deadlocked: the strips behind a blocked first strip were never claimed by the idle worker")
	}
	if ran.Load() != n {
		t.Fatalf("%d of %d indices ran", ran.Load(), n)
	}
}

// TestForCtxCancelled: an already-cancelled context must return promptly
// without invoking the body at all.
func TestForCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	err := ForCtx(ctx, 1000, 4, func(start, end int) { calls.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("body invoked %d times on a cancelled context", calls.Load())
	}
}

// TestForCtxDrains: cancelling mid-run stops new strips, completes strips
// in flight, joins all workers before returning, and leaks no goroutines.
func TestForCtxDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	err := ForCtx(ctx, 4096, 4, func(start, end int) {
		if done.Add(int64(end-start)) > 64 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := done.Load(); n >= 4096 {
		t.Fatalf("cancellation did not stop the loop: %d/%d items ran", n, 4096)
	}
	waitForGoroutines(t, before)
}

// TestForCtxPanicPropagates: worker panics surface on the caller like For.
func TestForCtxPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected re-raised worker panic")
		}
	}()
	_ = ForCtx(context.Background(), 64, 4, func(start, end int) {
		panic("boom")
	})
}

// waitForGoroutines polls until the goroutine count settles back to
// (near) the baseline; shared by the drain tests.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
}
