package parallel

import (
	"context"
	"sync/atomic"
)

// ForCtx is the cancellation layer of the pipeline runtime: it keeps every
// determinism guarantee of For on the success path (identical chunk grid,
// so results stay bit-identical for any worker count) and adds cooperative
// cancellation with DETERMINISTIC DRAINING on the failure path — when the
// context is cancelled, no new unit of work starts, units already started
// run to completion (a kernel is never abandoned mid-write), all workers
// are joined, and only then does the call return ctx.Err(). Callers
// discard partial output on a non-nil error.

// ctxPollStrips bounds how many times ForCtx polls the context per chunk:
// each of For's chunks is subdivided into at most this many strips with a
// poll before each. The subdivision never changes results — For-based
// kernels partition their OUTPUT index space, so every element is still
// computed whole, in the same order within its strip.
const ctxPollStrips = 16

// ForCtx is For with cooperative cancellation. The strip grid is For's
// chunk grid (boundaries depend only on n and the resolved worker count)
// with each chunk cut into up to ctxPollStrips strips; the workers CLAIM
// strips from one shared cursor, in grid order, polling the context before
// each claim — so a worker that finishes early takes strips a static split
// would have left queued behind a slower one. Which worker runs a strip is
// scheduling only: outputs are disjoint per index. On cancellation workers
// drain: the strips in flight finish, no further strip is claimed, and
// ForCtx returns ctx.Err() after all workers have been joined — no
// goroutine outlives the call. An un-cancelled ForCtx is bit-identical to
// For. Worker panics are re-raised on the caller exactly as with For.
func ForCtx(ctx context.Context, n, workers int, fn func(start, end int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	chunks := fanout(workers)
	if chunks > n {
		chunks = n
	}
	var next atomic.Int64
	// One goroutine per chunk, launched, joined and panic-captured by For.
	For(chunks, chunks, func(_, _ int) {
		for ctx.Err() == nil {
			s := int(next.Add(1)) - 1
			if s >= chunks*ctxPollStrips {
				return
			}
			c := s / ctxPollStrips
			start, end := c*n/chunks, (c+1)*n/chunks
			strip := (end - start + ctxPollStrips - 1) / ctxPollStrips
			lo := start + (s%ctxPollStrips)*strip
			if lo >= end {
				continue // a chunk shorter than ctxPollStrips has fewer strips
			}
			fn(lo, min(lo+strip, end))
		}
	})
	return ctx.Err()
}
