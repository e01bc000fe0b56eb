package m2td

import (
	"context"
	"repro/internal/stitch"
	"testing"

	"repro/internal/eval"
)

// TestCtxBuildingBlocksParity locks in the building blocks' contract:
// the zero-valued options mean the documented defaults (full densities,
// seed 1), StitchCtx builds what the stitch kernel builds, and
// DecomposeCtx is bit-identical at any Parallel value.
func TestCtxBuildingBlocksParity(t *testing.T) {
	space, err := eval.SpaceFor("double-pendulum", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	explicit, err := PartitionCtx(ctx, space, space.TimeMode(), PartitionOptions{PivotFrac: 1, FreeFrac: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionCtx(ctx, space, space.TimeMode(), PartitionOptions{FreeFrac: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if part.NumSims != explicit.NumSims {
		t.Fatalf("PartitionCtx NumSims = %d with PivotFrac defaulted, %d with PivotFrac 1", part.NumSims, explicit.NumSims)
	}

	j, err := StitchCtx(ctx, part, StitchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := stitch.Join(explicit); j.NNZ() != want.NNZ() {
		t.Fatalf("StitchCtx NNZ = %d, stitch.Join = %d", j.NNZ(), want.NNZ())
	}

	serial, err := DecomposeCtx(ctx, part, DecomposeOptions{Method: MethodSELECT, Rank: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := DecomposeCtx(ctx, part, DecomposeOptions{Method: MethodSELECT, Rank: 2, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identical across worker counts: same factors, same core cells.
	for m := range serial.Factors {
		a, b := serial.Factors[m], pooled.Factors[m]
		if a.Rows != b.Rows || a.Cols != b.Cols {
			t.Fatalf("factor %d shape mismatch", m)
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("factor %d differs at %d: %v vs %v (Parallel must not change results)", m, i, a.Data[i], b.Data[i])
			}
		}
	}
	if len(serial.Core.Data) != len(pooled.Core.Data) {
		t.Fatalf("core size %d vs %d across Parallel", len(serial.Core.Data), len(pooled.Core.Data))
	}
	for i := range serial.Core.Data {
		if serial.Core.Data[i] != pooled.Core.Data[i] {
			t.Fatalf("core differs at %d across Parallel", i)
		}
	}
}

// TestCtxBuildingBlocksTrace routes a trace through all three building
// blocks and asserts each contributed its stage span.
func TestCtxBuildingBlocksTrace(t *testing.T) {
	space, err := eval.SpaceFor("double-pendulum", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	trace := NewTrace("custom")
	part, err := PartitionCtx(ctx, space, space.TimeMode(), PartitionOptions{Seed: 3, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StitchCtx(ctx, part, StitchOptions{ZeroJoin: true, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecomposeCtx(ctx, part, DecomposeOptions{Rank: 2, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	trace.Finish()
	root := trace.Root()
	for _, path := range [][]string{
		{"partition", "sub1"},
		{"stitch"},
		{"decompose", "factors"},
		{"decompose", "core"},
	} {
		if root.Find(path...) == nil {
			t.Errorf("span %v missing:\n%s", path, root.Skeleton())
		}
	}
	if got := root.Find("stitch").Counter("zero_join"); got != 1 {
		t.Errorf("stitch zero_join counter = %d, want 1", got)
	}
	// The only stitch is the one asked for: DecomposeCtx took the
	// join-free route.
	if d := root.Find("decompose"); d.Find("stitch") != nil || d.Counter("factored") != 1 {
		t.Errorf("DecomposeCtx: want no stitch span and factored=1:\n%s", d.Skeleton())
	}
}

// TestCtxBuildingBlocksCancellation: a pre-cancelled context stops every
// building block with a context error.
func TestCtxBuildingBlocksCancellation(t *testing.T) {
	space, err := eval.SpaceFor("double-pendulum", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionCtx(context.Background(), space, space.TimeMode(), PartitionOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PartitionCtx(ctx, space, space.TimeMode(), PartitionOptions{}); err == nil {
		t.Error("PartitionCtx ignored cancelled context")
	}
	if _, err := StitchCtx(ctx, part, StitchOptions{}); err == nil {
		t.Error("StitchCtx ignored cancelled context")
	}
	if _, err := DecomposeCtx(ctx, part, DecomposeOptions{}); err == nil {
		t.Error("DecomposeCtx ignored cancelled context")
	}
}

// TestDecomposeCtxRejectsBadMethod: typed-method validation happens in
// the facade, before any work.
func TestDecomposeCtxRejectsBadMethod(t *testing.T) {
	if _, err := DecomposeCtx(context.Background(), nil, DecomposeOptions{Method: "bogus"}); err == nil {
		t.Error("bogus method accepted")
	}
}
