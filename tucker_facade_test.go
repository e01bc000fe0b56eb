package m2td

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// facadeTestTensor builds a small deterministic sparse tensor.
func facadeTestTensor() *tensor.Sparse {
	t := tensor.NewSparse(tensor.Shape{5, 4, 3})
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 3; k++ {
				if (i+j+k)%2 == 0 {
					t.Append([]int{i, j, k}, float64(1+i)*0.5+float64(j*k))
				}
			}
		}
	}
	return t
}

func TestTuckerCtxMatchesInternal(t *testing.T) {
	x := facadeTestTensor()
	ranks := tucker.UniformRanks(x.Order(), 2)
	ctx := context.Background()

	res, err := TuckerCtx(ctx, x, TuckerOptions{Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := tucker.HOSVDWorkers(x, ranks, 0)
	if got, ref := res.Decomposition.Core.Norm(), want.Core.Norm(); got != ref {
		//lint:allow floatcmp -- bit-identity assertion between two code paths of the same kernel
		t.Fatalf("facade HOSVD core norm %v != internal %v", got, ref)
	}
	fit, err := res.Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	if fit <= 0 || fit > 1 {
		t.Fatalf("fit %v outside (0, 1]", fit)
	}

	hres, err := TuckerCtx(ctx, x, TuckerOptions{Rank: 2, HOOI: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	hfit, err := hres.Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	if hfit < fit-1e-12 {
		t.Fatalf("HOOI fit %v worse than HOSVD fit %v", hfit, fit)
	}
}

func TestTuckerCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TuckerCtx(ctx, facadeTestTensor(), TuckerOptions{}); err == nil {
		t.Fatal("cancelled TuckerCtx succeeded")
	}
}

// HOOI's sweeps observe the context: cancelled once its "init" span (the
// HOSVD start) appears, HOOI returns context.Canceled. The tensor is sized
// so that ten uncancelled sweeps take far longer than the watcher needs to
// see the span and cancel.
func TestTuckerCtxHOOICancelledAfterInit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.NewSparse(tensor.Shape{60, 60, 60})
	for e := 0; e < 150000; e++ {
		x.Append([]int{rng.Intn(60), rng.Intn(60), rng.Intn(60)}, rng.NormFloat64())
	}
	trace := obs.New("test")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for trace.Root().Find("tucker", "init") == nil && ctx.Err() == nil {
			runtime.Gosched()
		}
		cancel()
	}()
	_, err := TuckerCtx(ctx, x, TuckerOptions{Rank: 4, HOOI: true, Parallel: 1, Trace: trace})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("HOOI cancelled after its init span: want context.Canceled, got %v", err)
	}
	if trace.Root().Find("tucker", "init") == nil {
		t.Fatal("cancelled before the HOSVD init started: the test proved nothing")
	}
}

// asResult presents a Tucker decomposition to requireSameBits.
func asResult(r *TuckerResult) *core.Result {
	return &core.Result{Core: r.Decomposition.Core, Factors: r.Decomposition.Factors}
}

// TestTuckerCtxBitStableAcrossParallel: HOSVD and HOOI are one set of bits
// at any Parallel.
func TestTuckerCtxBitStableAcrossParallel(t *testing.T) {
	defer parallel.SetFanoutCap(parallel.SetFanoutCap(8))
	x := facadeTestTensor()
	for _, hooi := range []bool{false, true} {
		run := func(parallel int) *TuckerResult {
			res, err := TuckerCtx(context.Background(), x, TuckerOptions{Rank: 2, HOOI: hooi, Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		serial := run(1)
		for _, p := range []int{2, 8} {
			requireSameBits(t, fmt.Sprintf("hooi=%t, Parallel=%d vs 1", hooi, p), asResult(run(p)), asResult(serial))
		}
	}
}

// TestTuckerCtxRejectsBadRanks: a negative Rank, a Ranks vector of the
// wrong length or with a non-positive entry is an error naming the field,
// not a panic in the kernel.
func TestTuckerCtxRejectsBadRanks(t *testing.T) {
	for _, c := range []struct {
		field string
		opts  TuckerOptions
	}{
		{"Rank", TuckerOptions{Rank: -1}},
		{"Ranks", TuckerOptions{Ranks: []int{2, 2}}},
		{"Ranks", TuckerOptions{Ranks: []int{2, 0, 2}}},
		{"Ranks", TuckerOptions{Ranks: []int{2, 2, -3}}},
	} {
		_, err := TuckerCtx(context.Background(), facadeTestTensor(), c.opts)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: want an error naming %s, got %v", c.opts, c.field, err)
		}
	}
}

// TestTuckerCtxRejectsNonFiniteNorm: a NaN cell, or finite cells whose
// squared norm overflows, would reach the Grams and come back as a NaN
// fit; TuckerCtx refuses both before any kernel runs.
func TestTuckerCtxRejectsNonFiniteNorm(t *testing.T) {
	nan := facadeTestTensor()
	nan.Append([]int{1, 0, 0}, math.NaN())
	huge := tensor.NewSparse(tensor.Shape{3, 3, 3})
	for i := range 3 {
		huge.Append([]int{i, i, i}, 1e200)
	}
	for name, x := range map[string]*tensor.Sparse{"NaN": nan, "1e200": huge} {
		for _, hooi := range []bool{false, true} {
			res, err := TuckerCtx(context.Background(), x, TuckerOptions{Rank: 2, HOOI: hooi})
			if err == nil || !strings.HasPrefix(err.Error(), "m2td: ") {
				t.Errorf("%s hooi=%v: want an m2td error, got %v (result %v)", name, hooi, err, res)
			}
		}
	}
}

func TestConfigFingerprint(t *testing.T) {
	base := Config{System: SystemLorenz, Resolution: 6, Rank: 3}
	if got, again := base.Fingerprint(), base.Fingerprint(); got != again {
		t.Fatalf("fingerprint unstable: %q vs %q", got, again)
	}
	// Defaults collapse: an explicit default equals the zero-field form.
	explicit := Config{System: SystemLorenz, Resolution: 6, Rank: 3, Method: MethodSELECT, Seed: 1, Pivot: "t"}
	if base.Fingerprint() != explicit.Fingerprint() {
		t.Fatalf("normalized defaults differ:\n%q\n%q", base.Fingerprint(), explicit.Fingerprint())
	}
	// Parallel is excluded (bit-identical by contract).
	par := base
	par.Parallel = 7
	if base.Fingerprint() != par.Fingerprint() {
		t.Fatal("Parallel changed the fingerprint")
	}
	// Distributed.Workers is excluded at fixed Shards; Shards is included.
	d2 := base
	d2.Distributed = &DistributedConfig{Workers: 2, Shards: 4}
	d3 := base
	d3.Distributed = &DistributedConfig{Workers: 3, Shards: 4}
	if d2.Fingerprint() != d3.Fingerprint() {
		t.Fatal("Distributed.Workers changed the fingerprint at fixed Shards")
	}
	dOther := base
	dOther.Distributed = &DistributedConfig{Workers: 2, Shards: 8}
	if d2.Fingerprint() == dOther.Fingerprint() {
		t.Fatal("Distributed.Shards did not change the fingerprint")
	}
	// Decomposition-shaping fields are included.
	for name, mut := range map[string]func(*Config){
		"Rank":     func(c *Config) { c.Rank = 5 },
		"Method":   func(c *Config) { c.Method = MethodAVG },
		"ZeroJoin": func(c *Config) { c.ZeroJoin = true },
		"Seed":     func(c *Config) { c.Seed = 9 },
		"Workers":  func(c *Config) { c.Workers = 2 },
	} {
		c := base
		mut(&c)
		if c.Fingerprint() == base.Fingerprint() {
			t.Fatalf("%s did not change the fingerprint", name)
		}
	}
	if !strings.Contains(base.Fingerprint(), "|full-v2|") {
		t.Fatalf("fingerprint missing version marker: %q", base.Fingerprint())
	}
}
