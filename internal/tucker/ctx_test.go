package tucker

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

func randomSparseTensor(rng *rand.Rand, shape tensor.Shape, nnz int) *tensor.Sparse {
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

// countingCtx flips to cancelled after its Err method has been consulted
// `after` times — a deterministic probe for WHERE the sweep loop polls.
type countingCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	after int
}

func (c *countingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

func (c *countingCtx) polls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func TestHOOICtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(8))
	x := randomSparseTensor(rng, tensor.Shape{5, 4, 3}, 30)
	dec, err := HOOICtx(ctx, x, []int{2, 2, 2}, HOOIOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if dec.Core != nil || dec.Factors != nil {
		t.Fatalf("cancelled HOOI leaked partial output: %+v", dec)
	}
}

func TestHOOICtxStopsBetweenModeUpdatesNotMidKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randomSparseTensor(rng, tensor.Shape{6, 5, 4}, 60)
	// Allow the initial poll plus the first sweep's first mode update,
	// then flip to cancelled: HOOICtx must return Canceled — proving it
	// re-polls at the next mode boundary rather than only up front.
	cctx := &countingCtx{Context: context.Background(), after: 2}
	_, err := HOOICtx(cctx, x, []int{3, 3, 2}, HOOIOptions{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled from a mid-sweep flip, got %v", err)
	}
	if cctx.polls() < 3 {
		t.Fatalf("HOOICtx consulted the context only %d times; it is not polling between mode updates", cctx.polls())
	}
}

func TestHOOICtxDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randomSparseTensor(rng, tensor.Shape{6, 5, 4}, 60)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := HOOICtx(ctx, x, []int{3, 3, 2}, HOOIOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}
