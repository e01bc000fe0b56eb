package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tucker"
)

// These tests pin core's sharded D-M2TD (core.Options.Shards) on the
// inputs they were written for; TestDecomposeIsShardedCore and
// TestDistributedRejectsBadOptions are about this package's shim.

var doublePendulumPairs = [][2]int{{0, 2}, {1, 3}}

func tinyPartition(t *testing.T, freeFrac float64, seed int64) *partition.Result {
	t.Helper()
	return pivotPartition(t, 4, freeFrac, seed)
}

// pivotPartition is tinyPartition pivoted on the given mode: 4 is time,
// the evaluation default; 0 is a parameter mode, whose sub-tensor storage
// is not lexicographic within a pivot group.
func pivotPartition(t *testing.T, pivot int, freeFrac float64, seed int64) *partition.Result {
	t.Helper()
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 4)
	cfg := partition.DefaultConfig(5, pivot, doublePendulumPairs)
	cfg.FreeFrac = freeFrac
	res, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(seed)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDistributedMatchesSerial(t *testing.T) {
	p := tinyPartition(t, 1, 120)
	ranks := tucker.UniformRanks(5, 3)
	for _, m := range core.Methods() {
		serial, err := core.DecomposeCtx(context.Background(), p, core.Options{Method: m, Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			opts := core.Options{Method: m, Ranks: ranks, Shards: workers}
			d, err := decomposeCtx(p, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m, workers, err)
			}
			if d.Join.NNZ() != serial.Join.NNZ() {
				t.Fatalf("%s workers=%d: join NNZ %d != serial %d", m, workers, d.Join.NNZ(), serial.Join.NNZ())
			}
			f, err := core.DecomposeFactored(p, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m, workers, err)
			}
			if f.Join != nil || p.JoinCells(false) != serial.Join.NNZ() {
				t.Fatalf("%s workers=%d: join-free route: join stitched %v, JoinCells %d, serial join %d", m, workers, f.Join != nil, p.JoinCells(false), serial.Join.NNZ())
			}
			for route, d := range map[string]*core.Result{"materialised": d, "join-free": f} {
				if !d.Core.Equal(serial.Core, 1e-9) {
					t.Fatalf("%s workers=%d %s: distributed core differs from serial", m, workers, route)
				}
				for mode := range d.Factors {
					if !d.Factors[mode].Equal(serial.Factors[mode], 1e-9) {
						t.Fatalf("%s workers=%d %s: factor %d differs", m, workers, route, mode)
					}
				}
			}
		}
	}
}

func TestDistributedZeroJoinMatchesSerial(t *testing.T) {
	p := tinyPartition(t, 0.4, 121)
	ranks := tucker.UniformRanks(5, 2)
	serial, err := core.DecomposeCtx(context.Background(), p, core.Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: true, Shards: 4}
	d, err := decomposeCtx(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Join.NNZ() != serial.Join.NNZ() {
		t.Fatalf("zero-join NNZ %d != serial %d", d.Join.NNZ(), serial.Join.NNZ())
	}
	if !d.Core.Equal(serial.Core, 1e-9) {
		t.Fatal("distributed zero-join core differs from serial")
	}
	f, err := core.DecomposeFactored(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.Join != nil || p.JoinCells(true) != serial.Join.NNZ() {
		t.Fatalf("join-free zero-join: join stitched %v, JoinCells %d, serial join %d", f.Join != nil, p.JoinCells(true), serial.Join.NNZ())
	}
	if !f.Core.Equal(serial.Core, 1e-9) {
		t.Fatal("join-free zero-join core differs from serial")
	}
}

func TestDistributedDeterministicAcrossRuns(t *testing.T) {
	p := tinyPartition(t, 1, 122)
	ranks := tucker.UniformRanks(5, 2)
	opts := core.Options{Method: core.SELECT, Ranks: ranks, Shards: 4}
	for route, decompose := range routes {
		a, err := decompose(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := decompose(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Core.Equal(b.Core, 0) {
			t.Fatalf("%s: repeated distributed runs differ bit-for-bit", route)
		}
	}
}

// TestDistributedPhaseStats: Algorithm 6's phase split is the span tree's.
// The materialised entry times factors, stitch and core; the join-free
// route opens no stitch span at all.
func TestDistributedPhaseStats(t *testing.T) {
	p := tinyPartition(t, 1, 123)
	opts := core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2), Shards: 2}
	phases := func(root *obs.Span) []string {
		var names []string
		for _, c := range root.Children() {
			if c.Duration() <= 0 {
				t.Fatalf("phase %q has no recorded time", c.Name())
			}
			names = append(names, c.Name())
		}
		return names
	}
	opts.Span = obs.New("decompose").Root()
	if _, err := decomposeCtx(p, opts); err != nil {
		t.Fatal(err)
	}
	if got := phases(opts.Span); !slices.Equal(got, []string{"factors", "stitch", "core"}) {
		t.Fatalf("materialised phases %v, want factors, stitch, core", got)
	}
	opts.Span = obs.New("decompose").Root()
	if _, err := core.DecomposeFactored(p, opts); err != nil {
		t.Fatal(err)
	}
	if got := phases(opts.Span); !slices.Equal(got, []string{"factors", "core"}) {
		t.Fatalf("join-free phases %v, want factors, core: nothing stitched", got)
	}
	if opts.Span.Counter("factored") != 1 {
		t.Fatal("join-free route did not mark the stage span factored = 1")
	}
}

func TestDistributedRejectsBadOptions(t *testing.T) {
	p := tinyPartition(t, 1, 124)
	if _, err := Decompose(p, Options{Options: core.Options{Method: "nope", Ranks: tucker.UniformRanks(5, 2)}}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := Decompose(p, Options{Options: core.Options{Method: core.AVG, Ranks: []int{1}}}); err == nil {
		t.Fatal("bad rank count accepted")
	}
}

// TestDecomposeIsShardedCore: the shim is core.DecomposeFactored at
// Shards = Workers, bit for bit.
func TestDecomposeIsShardedCore(t *testing.T) {
	p := tinyPartition(t, 0.5, 126)
	for _, workers := range []int{0, 1, 3} {
		opts := core.Options{Method: core.CONCAT, Ranks: tucker.UniformRanks(5, 2)}
		got, err := Decompose(p, Options{Options: opts, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		opts.Shards = workers
		want, err := core.DecomposeFactored(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

func TestDistributedReconstructionAccuracy(t *testing.T) {
	// End-to-end: the distributed pipeline's reconstruction must
	// approximate the ground truth (relative error < 1).
	p := tinyPartition(t, 1, 125)
	d, err := core.DecomposeFactored(p, core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 3), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	y := p.Space.GroundTruth()
	relErr := d.Reconstruct().Sub(y).Norm() / y.Norm()
	if relErr >= 1 {
		t.Fatalf("distributed reconstruction relative error %v", relErr)
	}
}

// routes are core's two entries: the join-free kernel every campaign runs
// and the materialised phases it is tested against.
var routes = map[string]func(*partition.Result, core.Options) (*core.Result, error){
	"join-free":    core.DecomposeFactored,
	"materialised": decomposeCtx,
}

func decomposeCtx(p *partition.Result, opts core.Options) (*core.Result, error) {
	return core.DecomposeCtx(context.Background(), p, opts)
}

// sameResult fails unless got and want agree to the last bit: join cell
// order and values (both have one or neither does), core, factors.
func sameResult(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	sameBits := func(what string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d values, want %d", label, what, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s value %d is %v, want %v", label, what, i, g[i], w[i])
			}
		}
	}
	if (got.Join == nil) != (want.Join == nil) {
		t.Fatalf("%s: one result has a join, the other none", label)
	}
	if want.Join != nil {
		if !slices.Equal(got.Join.Idx, want.Join.Idx) {
			t.Fatalf("%s: join cell order differs", label)
		}
		sameBits("join", got.Join.Vals, want.Join.Vals)
	}
	if !slices.Equal(got.Core.Shape, want.Core.Shape) {
		t.Fatalf("%s: core shape %v, want %v", label, got.Core.Shape, want.Core.Shape)
	}
	sameBits("core", got.Core.Data, want.Core.Data)
	for m := range want.Factors {
		sameBits(fmt.Sprintf("factor %d", m), got.Factors[m].Data, want.Factors[m].Data)
	}
}

// TestDistributedBitIdenticalAcrossFanout: Shards is the determinism unit
// and nothing else decides the result — how many goroutines the pool really
// runs (here 1, 2 and 8, tasks claimed in whatever order) moves no bit.
func TestDistributedBitIdenticalAcrossFanout(t *testing.T) {
	p := tinyPartition(t, 0.5, 127)
	for _, m := range core.Methods() {
		opts := core.Options{Method: m, Ranks: tucker.UniformRanks(5, 2), ZeroJoin: true, Shards: 3}
		for route, decompose := range routes {
			var want *core.Result
			for _, fanout := range []int{1, 2, 8} {
				prev := parallel.SetFanoutCap(fanout)
				got, err := decompose(p, opts)
				parallel.SetFanoutCap(prev)
				if err != nil {
					t.Fatalf("%s %s fan-out %d: %v", m, route, fanout, err)
				}
				if (got.Join != nil) != (route == "materialised") {
					t.Fatalf("%s %s: join stitched %v", m, route, got.Join != nil)
				}
				if want == nil {
					want = got
					continue
				}
				sameResult(t, fmt.Sprintf("%s %s fan-out %d", m, route, fanout), got, want)
			}
		}
	}
}

// TestDistributedZeroWorkersIsOneShard: Shards below 1 means one shard,
// and one shard is the unsharded computation on either route. The
// materialised phases are core.DecomposeCtx's — the same stitch kernel over
// the whole key range, the same projection of the same cell order — to the
// last bit of every factor, core value and join cell; the join-free ones
// are core.DecomposeFactored's — core.ProjectShard at shard 0 of 1, the
// same assembly — to the last bit of every factor and core value.
func TestDistributedZeroWorkersIsOneShard(t *testing.T) {
	for _, pivot := range []int{4, 0} {
		p := pivotPartition(t, pivot, 0.5, 129)
		for _, m := range core.Methods() {
			for _, zero := range []bool{false, true} {
				opts := core.Options{Method: m, Ranks: tucker.UniformRanks(5, 2), ZeroJoin: zero}
				want, err := decomposeCtx(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				factored, err := core.DecomposeFactored(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{0, 1} {
					opts.Shards = workers
					got, err := decomposeCtx(p, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, fmt.Sprintf("pivot %d %s zero=%v: workers=%d vs core.DecomposeCtx", pivot, m, zero, workers), got, want)
					if got, err = core.DecomposeFactored(p, opts); err != nil {
						t.Fatal(err)
					}
					sameResult(t, fmt.Sprintf("pivot %d %s zero=%v: workers=%d vs core.DecomposeFactored", pivot, m, zero, workers), got, factored)
				}
			}
		}
	}
}

// TestDistributedEmptyShardsAndEmptyJoin: more shards than pivot keys
// leaves shards with no group, and sub-tensors that share no pivot
// configuration leave every shard empty — the join is then empty and the
// core all-zero at the clipped ranks.
func TestDistributedEmptyShardsAndEmptyJoin(t *testing.T) {
	p := tinyPartition(t, 1, 128)
	ranks := tucker.UniformRanks(5, 9) // clipped to 5 on the parameter modes, 4 on time
	opts := core.Options{Method: core.SELECT, Ranks: ranks}
	spec := stitch.NewSpec(p, false)
	keys := p.Space.Shape()[spec.Pivots[0]]

	serial, err := decomposeCtx(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = keys + 3
	d, err := decomposeCtx(p, opts)
	if err != nil {
		t.Fatalf("shards=%d over %d pivot keys: %v", opts.Shards, keys, err)
	}
	if d.Join.NNZ() != serial.Join.NNZ() || !d.Core.Equal(serial.Core, 1e-9) {
		t.Fatalf("shards=%d over %d pivot keys: result differs from serial", opts.Shards, keys)
	}
	// A shard no pivot key lands in projects no cell: all-zero partials.
	if d, err = core.DecomposeFactored(p, opts); err != nil {
		t.Fatalf("join-free, shards=%d over %d pivot keys: %v", opts.Shards, keys, err)
	}
	if d.Join != nil || p.JoinCells(false) != serial.Join.NNZ() || !d.Core.Equal(serial.Core, 1e-9) {
		t.Fatalf("join-free, shards=%d over %d pivot keys: result differs from serial", opts.Shards, keys)
	}

	// Side 1 keeps the even pivot keys, side 2 the odd ones: every group is
	// one-sided, so the stitched join is empty and the join-free core —
	// every group with aκ or cκ zero on one side — all-zero.
	disjoint := *p
	sub1, sub2 := *p.Sub1, *p.Sub2
	sub1.Tensor = thin(p.Sub1.Tensor, func(_ int, idx []int) bool { return spec.PivotKey(idx)%2 == 1 })
	sub2.Tensor = thin(p.Sub2.Tensor, func(_ int, idx []int) bool { return spec.PivotKey(idx)%2 == 0 })
	disjoint.Sub1, disjoint.Sub2 = &sub1, &sub2
	for _, workers := range []int{1, 3} {
		opts.Shards = workers
		m, err := decomposeCtx(&disjoint, opts)
		if err != nil {
			t.Fatalf("disjoint pivots, workers=%d: %v", workers, err)
		}
		if m.Join.NNZ() != 0 || m.Core.Norm() != 0 {
			t.Fatalf("disjoint pivots, workers=%d: join has %d cells, core norm %v", workers, m.Join.NNZ(), m.Core.Norm())
		}
		d, err := core.DecomposeFactored(&disjoint, opts)
		if err != nil {
			t.Fatalf("disjoint pivots, workers=%d: %v", workers, err)
		}
		if d.Join != nil || disjoint.JoinCells(false) != 0 {
			t.Fatalf("disjoint pivots, workers=%d: join stitched %v, JoinCells %d", workers, d.Join != nil, disjoint.JoinCells(false))
		}
		if want := tucker.ClipRanks(p.Space.Shape(), ranks); !slices.Equal(d.Core.Shape, want) {
			t.Fatalf("disjoint pivots, workers=%d: core shape %v, want %v", workers, d.Core.Shape, want)
		}
		if d.Core.Norm() != 0 {
			t.Fatalf("disjoint pivots, workers=%d: core norm %v, want 0", workers, d.Core.Norm())
		}
	}
}

// TestDistributedBrokenProductStructureFallsBack — the name is the
// parent's; nothing falls back any more. A hole in the P×E grid (one
// quarantined cell; then a thinned side 1 and a pivot group missing from
// side 2; then the same pair without its configuration lists) leaves
// core.DecomposeFactored join-free at any shard count: no join on the
// result, holey_groups on the stage span, the unsharded bits at one shard,
// and core.DecomposeCtx's decomposition, sharded or not, to 1e-9 at any.
func TestDistributedBrokenProductStructureFallsBack(t *testing.T) {
	p := tinyPartition(t, 1, 133)
	spec := stitch.NewSpec(p, false)
	broken := func(drop1, drop2 func(e int, idx []int) bool) *partition.Result {
		out, sub1, sub2 := *p, *p.Sub1, *p.Sub2
		sub1.Tensor, sub2.Tensor = thin(p.Sub1.Tensor, drop1), thin(p.Sub2.Tensor, drop2)
		out.Sub1, out.Sub2 = &sub1, &sub2
		return &out
	}
	none := func(int, []int) bool { return false }
	thinned := broken(func(e int, _ []int) bool { return e%3 == 0 }, func(_ int, idx []int) bool { return spec.PivotKey(idx) == 2 })
	unlisted := *thinned
	unlisted.PivotConfigs, unlisted.Free1Configs, unlisted.Free2Configs = nil, nil, nil
	for name, part := range map[string]*partition.Result{
		"one cell":   broken(func(e int, _ []int) bool { return e == 7 }, none),
		"many cells": thinned,
		"no lists":   &unlisted,
	} {
		for _, zero := range []bool{false, true} {
			opts := core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2), ZeroJoin: zero}
			serial, err := decomposeCtx(part, opts)
			if err != nil {
				t.Fatal(err)
			}
			inproc, err := core.DecomposeFactored(part, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				label := fmt.Sprintf("%s zero=%v workers=%d", name, zero, workers)
				trace := obs.New("campaign")
				opts.Shards, opts.Span = workers, trace.Root()
				got, err := core.DecomposeFactored(part, opts)
				if err != nil {
					t.Fatal(err)
				}
				holey := trace.Root().Counter("holey_groups")
				if got.Join != nil || trace.Root().Counter("factored") != 1 || (holey > 0) == zero {
					t.Fatalf("%s: join stitched %v, span:\n%s", label, got.Join != nil, trace.Root().Skeleton())
				}
				if cells := part.JoinCells(zero); cells != serial.Join.NNZ() {
					t.Fatalf("%s: JoinCells %d, stitched join %d", label, cells, serial.Join.NNZ())
				}
				opts.Span = nil
				want, err := decomposeCtx(part, opts)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					sameResult(t, label+": one shard vs core.DecomposeFactored", got, inproc)
				}
				if !got.Core.Equal(want.Core, 1e-9) || !got.Core.Equal(serial.Core, 1e-9) {
					t.Fatalf("%s: core differs from the materialised phases'", label)
				}
			}
		}
	}
}

// TestJoinFreeBitsPinned pins the join-free formula's bits:
// core.DecomposeFactored at one shard and at three, on pairs that lost
// nothing and on one with holes (side 1 thinned cell by cell, pivot group 2
// gone from side 2), produce the bits recorded when the double pendulum's
// derivative went from four trigonometric calls to two (FNV-64a over the
// core's, then the factors', float bits; amd64 — other ports may fuse
// multiply-adds).
func TestJoinFreeBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit fingerprints were recorded on amd64")
	}
	bitsOf := func(r *core.Result) string {
		h := fnv.New64a()
		put := func(vs []float64) {
			for _, v := range vs {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		put(r.Core.Data)
		for _, f := range r.Factors {
			put(f.Data)
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	twoPivot := partition.Config{Pivots: []int{4, 1}, Free1: []int{3}, Free2: []int{0, 2}, PivotFrac: 1}
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 4)
	for _, c := range []struct {
		name        string
		cfg         partition.Config
		free        float64
		method      core.Method
		zero, holey bool
		serial, sum string
	}{
		{"time/E=1/SELECT/join", partition.DefaultConfig(5, 4, doublePendulumPairs), 1, core.SELECT, false, false, "8db1a6a3776e5f8d", "82a6013b76c010e0"},
		{"time/E=0.5/CONCAT/zero", partition.DefaultConfig(5, 4, doublePendulumPairs), 0.5, core.CONCAT, true, false, "01f4514824d33efb", "bf19cb497a4d2a2b"},
		{"param/E=0.5/AVG/join", partition.DefaultConfig(5, 0, doublePendulumPairs), 0.5, core.AVG, false, false, "db4667075d274556", "d2862d03bc5c894e"},
		{"two-pivot/E=0.6/SELECT/join", twoPivot, 0.6, core.SELECT, false, false, "1c3c5016401c279d", "b187c16acefbc2d0"},
		{"two-pivot/E=0.6/AVG/zero", twoPivot, 0.6, core.AVG, true, false, "2f7eb8f284cdd79c", "923847ffea4f873e"},
		{"time/E=1/SELECT/join/holey", partition.DefaultConfig(5, 4, doublePendulumPairs), 1, core.SELECT, false, true, "4b36cfe48fa0bd40", "86788229c991403a"},
	} {
		c.cfg.FreeFrac = c.free
		p, err := partition.GenerateCtx(context.Background(), space, c.cfg, rand.New(rand.NewSource(300)), partition.SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if c.holey {
			spec, sub1, sub2 := stitch.NewSpec(p, false), *p.Sub1, *p.Sub2
			sub1.Tensor = thin(p.Sub1.Tensor, func(e int, _ []int) bool { return e%3 == 0 })
			sub2.Tensor = thin(p.Sub2.Tensor, func(_ int, idx []int) bool { return spec.PivotKey(idx) == 2 })
			p.Sub1, p.Sub2 = &sub1, &sub2
		}
		opts := core.Options{Method: c.method, Ranks: tucker.UniformRanks(5, 2), ZeroJoin: c.zero}
		one, err := core.DecomposeFactored(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Shards = 3
		three, err := core.DecomposeFactored(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := bitsOf(one); got != c.serial {
			t.Errorf("%s: core.DecomposeFactored bits %s, pinned %s", c.name, got, c.serial)
		}
		if got := bitsOf(three); got != c.sum {
			t.Errorf("%s: three shards bits %s, pinned %s", c.name, got, c.sum)
		}
	}
}
