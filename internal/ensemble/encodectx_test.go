package ensemble

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/faults"
)

func encodeSpace(sys dynsys.System) *Space { return NewSpace(sys, 5, 4) }

func TestEncodeCtxMatchesEncode(t *testing.T) {
	space := encodeSpace(dynsys.NewLorenz())
	sims := RandomSample(space, 30, rand.New(rand.NewSource(3)))
	want, _, err := EncodeCtx(context.Background(), space, sims, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		got, stats, err := EncodeCtx(context.Background(), space, sims, SimOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Tensor.Idx, want.Tensor.Idx) || !reflect.DeepEqual(got.Tensor.Vals, want.Tensor.Vals) {
			t.Fatalf("workers=%d: EncodeCtx differs from Encode", workers)
		}
		if stats.ExecutedSims != len(sims) || stats.FailedSims != 0 || stats.QuarantinedCells != 0 {
			t.Fatalf("workers=%d: clean-run stats %+v", workers, stats)
		}
	}
}

func TestEncodeCtxCancelled(t *testing.T) {
	space := encodeSpace(dynsys.NewLorenz())
	sims := RandomSample(space, 10, rand.New(rand.NewSource(4)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := EncodeCtx(ctx, space, sims, SimOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
}

func TestEncodeCtxFaultAccounting(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 31, TransientRate: 0.3, DivergentRate: 0.25})
	space := encodeSpace(inj.Wrap(dynsys.NewLorenz()))
	sims := RandomSample(space, 40, rand.New(rand.NewSource(5)))

	se, stats, err := EncodeCtx(context.Background(), space, sims, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	is := inj.Stats()
	if is.TransientSims == 0 || is.DivergentSims == 0 {
		t.Fatalf("no faults injected (%+v); test is vacuous", is)
	}
	if stats.FailedSims != 0 {
		t.Fatalf("recoverable faults produced %d failed sims", stats.FailedSims)
	}
	if stats.RetriedSims != is.TransientSims {
		t.Fatalf("RetriedSims %d != injected transient sims %d", stats.RetriedSims, is.TransientSims)
	}
	// Each divergent simulation's TimeSamples cells are all quarantined.
	if want := is.DivergentSims * space.TimeSamples; stats.QuarantinedCells != want {
		t.Fatalf("QuarantinedCells %d != %d divergent sims × %d stamps", stats.QuarantinedCells, is.DivergentSims, space.TimeSamples)
	}
	if se.Tensor.NNZ()+stats.QuarantinedCells != len(sims)*space.TimeSamples {
		t.Fatalf("stored %d + quarantined %d != %d requested cells", se.Tensor.NNZ(), stats.QuarantinedCells, len(sims)*space.TimeSamples)
	}
}
