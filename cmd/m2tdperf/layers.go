package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	m2td "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/distnet"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/mat"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// coreMethods are internal/core's names for methods, index-aligned.
var coreMethods = core.Methods()

// simSample is how many simulations the sim_us probe times one by one;
// the sample also makes the SimSet the store probes save and load.
const simSample = 128

// layerProbe is the traced pass of one workload: every layer entry point
// is called from here, on the inputs one campaign would hand it, and
// timed as a span. Each of the reps campaigns first runs untraced through
// m2td.RunCtx (the reference the staged spans must add up to), then stage
// by stage, then kernel by kernel on cold plan caches.
type layerProbe struct {
	primary  shape // the workload's own campaign
	factored bool
	dist     bool
	dense    shape // where the materialising kernels run
	sampled  bool  // the workload's accuracy is the sampled estimate
	reps     int
	distReps int // campaigns that also probe the process engine
	seed     int64
	scratch  string
	// wall is how long the campaigns may take before the probe stops
	// staging more of them, beyond the first three; zero is no limit.
	wall time.Duration

	dirs int
}

// samples accumulates one duration series per metric name.
type samples map[string][]float64

func (m samples) add(name string, v float64) { m[name] = append(m[name], v) }

func (lp *layerProbe) dir(kind string) string {
	lp.dirs++
	return filepath.Join(lp.scratch, fmt.Sprintf("%s-%d", kind, lp.dirs))
}

// reference is the workload's campaign as the timed full arm runs it.
func (lp *layerProbe) reference(seed int64, method m2td.Method) m2td.Config {
	cfg := lp.primary.config(full, seed, method)
	cfg.Factored = lp.factored
	if lp.dist {
		cfg.Distributed = &m2td.DistributedConfig{Workers: nproc(), Shards: distShards, WorkDir: lp.dir("ref")}
	}
	return cfg
}

// generate PF-partitions and simulates a shape's campaign as RunCtx does.
func generate(ctx context.Context, space *ensemble.Space, seed int64) (*partition.Result, error) {
	pcfg := partition.DefaultConfig(space.Order(), space.TimeMode(), eval.PairsFor(string(system)))
	return partition.GenerateCtx(ctx, space, pcfg, rand.New(rand.NewSource(seed)), partition.SimOptions{})
}

// cold returns the partition with empty kernel-plan caches, so a probe
// pays for plan compilation as the first kernel of a fresh campaign does.
func cold(p *partition.Result) *partition.Result {
	sub1, sub2 := *p.Sub1, *p.Sub2
	sub1.Tensor, sub2.Tensor = p.Sub1.Tensor.PlanlessView(), p.Sub2.Tensor.PlanlessView()
	out := *p
	out.Sub1, out.Sub2 = &sub1, &sub2
	return &out
}

func (lp *layerProbe) run(ctx context.Context, rec *recorder, s sheet, t *tally) error {
	m := samples{}

	// The process's very first campaign: nothing is cached yet.
	first := rec.time(0, "m2td.RunCtx(first)", 0, func() {
		_, err := m2td.RunCtx(ctx, lp.reference(campaignSeed(lp.seed, full, -1), m2td.MethodSELECT))
		t.op(err)
	})
	s.set("m2td.first_campaign_s", first)

	denseSpace, err := eval.SpaceFor(string(system), lp.dense.res, lp.dense.res)
	if err != nil {
		return err
	}
	var truth *tensor.Dense
	s.set("eval.ground_truth_s", rec.time(0, "Space.GroundTruth", 0, func() { truth = denseSpace.GroundTruth() }))

	st, err := store.Open(lp.dir("store"))
	if err != nil {
		return err
	}
	began := time.Now()
	for c := 1; c <= lp.reps; c++ {
		if lp.wall > 0 && c > 3 && time.Since(began) > lp.wall {
			fmt.Fprintf(os.Stderr, "m2tdperf: traced pass has taken %s: stopping after %d campaigns\n", lp.wall, c-1)
			break
		}
		if err := lp.campaign(ctx, rec, c, m, st, truth, t); err != nil {
			return fmt.Errorf("traced campaign %d: %w", c, err)
		}
		lp.cleanScratch()
	}

	for _, name := range []string{
		"ensemble.sim_us", "ensemble.sims_per_campaign", "partition.generate_s",
		"core.decompose_s", "tensor.leading_vectors_s", "core.factored_s",
		"stitch.join_s", "stitch.join_cells", "stitch.zero_join_s",
		"tucker.core_recover_s", "tucker.core_recover_serial_s", "tucker.sketch_s",
		"tucker.core_flops", "tucker.core_bytes",
		"dist.decompose_s", "dist.decompose_serial_s",
		"distnet.phase1_s", "distnet.phase2_s", "distnet.phase3_s", "distnet.spawn_s",
		"distnet.tasks", "distnet.requeues", "distnet.store_objects", "distnet.store_mb",
		"store.save_decomp_s", "store.load_decomp_s", "store.save_simset_s", "store.load_simset_s", "store.decomp_kb",
		"eval.accuracy_s",
	} {
		s.setMedian(name, m[name])
	}
	gen, sims, simUS := s["partition.generate_s"].value, s["ensemble.sims_per_campaign"].value, s["ensemble.sim_us"].value
	s.set("partition.fanout_eff", sims*simUS*1e-6/(gen*float64(nproc())))
	s.set("core.factors_s", s["core.decompose_s"].value-s["stitch.join_s"].value-s["tucker.core_recover_s"].value)
	cells := s["stitch.join_cells"].value
	s.set("stitch.ns_per_cell", s["stitch.join_s"].value*1e9/cells)
	s.set("tucker.core_ns_per_nnz", s["tucker.core_recover_serial_s"].value*1e9/cells)
	s.set("tucker.core_flops_per_byte", s["tucker.core_flops"].value/s["tucker.core_bytes"].value)

	// Latency as the caller sees it, over the untraced campaigns of this
	// pass (served-mix replaces these with its submissions').
	s.setOf("campaign_s_p50", percentile(m["run_off"], 0.50), m["run_off"])
	s.setOf("campaign_s_p90", percentile(m["run_off"], 0.90), m["run_off"])

	// Ratios between series compare their fastest members: contention only
	// ever slows a campaign, so the minima are what the code costs.
	off, on, staged := fastest(m["run_off"]), fastest(m["run_on"]), fastest(m["staged"])
	s.setOf("m2td.unattributed_frac", (off-staged)/off, m["staged"])
	s.setOf("m2td.trace_on_overhead_frac", (on-off)/off, m["run_on"])
	s.setOf("distnet.overhead_x", fastest(m["dist_campaign"])/fastest(m["inproc_serial"]), m["dist_campaign"])
	// Readings beyond the declared metrics: the figures the ratios above
	// were computed from, for the printed report.
	s.setMedian("m2td.run_s", m["run_off"])
	s.setMedian("m2td.staged_s", m["staged"])
	s.setMedian("distnet.decompose_s", m["distnet_total"])
	return nil
}

func (lp *layerProbe) cleanScratch() {
	for _, kind := range []string{"ref", "work"} {
		dirs, _ := filepath.Glob(filepath.Join(lp.scratch, kind+"-*"))
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
}

// campaign stages traced campaign c.
func (lp *layerProbe) campaign(ctx context.Context, rec *recorder, c int, m samples, st *store.Store, truth *tensor.Dense, t *tally) error {
	seed := campaignSeed(lp.seed, full, c)
	mi := (int(lp.seed%3) + 3 + c) % 3
	method, coreMethod := methods[mi], coreMethods[mi]
	root, endRoot := rec.start(c, "campaign", 0)
	defer endRoot()
	var firstErr error
	fail := func(err error) {
		t.op(err)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// Reference: the campaign untraced, then with the program's own
	// tracing on.
	for _, ref := range []struct {
		series string
		trace  bool
	}{{"run_off", false}, {"run_on", true}} {
		cfg := lp.reference(seed, method)
		cfg.Trace = ref.trace
		m.add(ref.series, rec.time(c, "m2td.RunCtx", root, func() {
			_, err := m2td.RunCtx(ctx, cfg)
			fail(err)
		}))
	}
	if firstErr != nil {
		return firstErr
	}
	if lp.dist {
		m.add("dist_campaign", m["run_off"][len(m["run_off"])-1])
	}

	// Staged: the same campaign as three calls into the layers below the
	// facade. Their sum against the reference is the unattributed time.
	stagedID, endStaged := rec.start(c, "staged", root)
	var space *ensemble.Space
	var part *partition.Result
	var res *core.Result
	var dres *distnet.Result
	var ranks []int
	opts := core.Options{Method: coreMethod}
	total := rec.time(c, "eval.SpaceFor", stagedID, func() {
		var err error
		space, err = eval.SpaceFor(string(system), lp.primary.res, lp.primary.res)
		fail(err)
	})
	if firstErr != nil {
		endStaged()
		return firstErr
	}
	ranks = tucker.UniformRanks(space.Order(), lp.primary.rank)
	opts.Ranks = ranks
	gen := rec.time(c, "partition.GenerateCtx", stagedID, func() {
		var err error
		part, err = generate(ctx, space, seed)
		fail(err)
	})
	if firstErr != nil {
		endStaged()
		return firstErr
	}
	total += gen
	m.add("partition.generate_s", gen)
	m.add("ensemble.sims_per_campaign", float64(part.NumSims))
	switch {
	case lp.factored:
		d := rec.time(c, "core.DecomposeFactored", stagedID, func() {
			var err error
			res, err = core.DecomposeFactored(part, opts)
			fail(err)
		})
		total += d
		m.add("core.factored_s", d)
	case lp.dist:
		total += rec.time(c, "distnet.Decompose", stagedID, func() { dres = lp.distnet(ctx, part, coreMethod, ranks, m, fail) })
		if dres != nil {
			res = dres.Result
		}
	default:
		d := rec.time(c, "core.DecomposeCtx", stagedID, func() {
			var err error
			res, err = core.DecomposeCtx(ctx, part, opts)
			fail(err)
		})
		total += d
		m.add("core.decompose_s", d)
	}
	endStaged()
	if firstErr != nil {
		return firstErr
	}
	m.add("staged", total)

	// Kernel probes, each on cold plan caches.
	probes, endProbes := rec.start(c, "probes", root)
	defer endProbes()
	lp.simProbe(ctx, rec, c, probes, space, m, st, fail)

	if !lp.factored {
		m.add("core.factored_s", rec.time(c, "core.DecomposeFactored", probes, func() {
			_, err := core.DecomposeFactored(cold(part), opts)
			fail(err)
		}))
	}
	dpart := part
	if lp.dense != lp.primary {
		denseSpace, err := eval.SpaceFor(string(system), lp.dense.res, lp.dense.res)
		if err != nil {
			return err
		}
		rec.time(c, "partition.GenerateCtx(dense)", probes, func() {
			dpart, err = generate(ctx, denseSpace, seed)
			fail(err)
		})
		ranks = tucker.UniformRanks(denseSpace.Order(), lp.dense.rank)
		opts.Ranks = ranks
	}
	if firstErr != nil {
		return firstErr
	}
	var dense *core.Result
	d := rec.time(c, "core.DecomposeCtx", probes, func() {
		var err error
		dense, err = core.DecomposeCtx(ctx, cold(dpart), opts)
		fail(err)
	})
	if firstErr != nil {
		return firstErr
	}
	if lp.factored || lp.dist {
		m.add("core.decompose_s", d)
	}

	m.add("tensor.leading_vectors_s", rec.time(c, "tensor.LeadingModeVectorsWorkers", probes, func() {
		cp := cold(dpart)
		for _, sub := range []*partition.SubEnsemble{cp.Sub1, cp.Sub2} {
			for n, mode := range sub.Modes {
				tensor.LeadingModeVectorsWorkers(sub.Tensor, n, ranks[mode], 0)
			}
		}
	}))

	var join *tensor.Sparse
	m.add("stitch.join_s", rec.time(c, "stitch.Join", probes, func() { join = stitch.Join(dpart) }))
	m.add("stitch.join_cells", float64(join.NNZ()))
	m.add("stitch.zero_join_s", rec.time(c, "stitch.ZeroJoin", probes, func() { stitch.ZeroJoin(dpart) }))

	m.add("tucker.core_recover_serial_s", rec.time(c, "tucker.CoreFromFactorsWorkers(1)", probes, func() {
		tucker.CoreFromFactorsWorkers(join.PlanlessView(), dense.Factors, 1)
	}))
	m.add("tucker.core_recover_s", rec.time(c, "tucker.CoreFromFactorsWorkers(nproc)", probes, func() {
		tucker.CoreFromFactorsWorkers(join.PlanlessView(), dense.Factors, 0)
	}))
	flops, bytes := coreRecoveryCost(join, dense.Factors)
	m.add("tucker.core_flops", flops)
	m.add("tucker.core_bytes", bytes)
	m.add("tucker.sketch_s", rec.time(c, "tucker.Sketch", probes, func() {
		_, _, err := tucker.Sketch(join.PlanlessView(), tucker.SketchOptions{KeepFrac: 0.1, Seed: seed})
		fail(err)
	}))

	for _, e := range []struct {
		series  string
		workers int
	}{{"dist.decompose_serial_s", 1}, {"dist.decompose_s", nproc()}} {
		m.add(e.series, rec.time(c, fmt.Sprintf("dist.Decompose(%d)", e.workers), probes, func() {
			_, err := dist.Decompose(cold(dpart), dist.Options{Options: opts, Workers: e.workers})
			fail(err)
		}))
	}

	// Accuracy as the workload's own verify evaluates it.
	m.add("eval.accuracy_s", rec.time(c, "eval.Accuracy", probes, func() {
		if lp.sampled {
			_, err := sampledAccuracy(space, res)
			fail(err)
			return
		}
		eval.Accuracy(res.Reconstruct(), truth)
	}))

	lp.storeProbe(rec, c, probes, dense, m, st, fail)

	// The process engine beside its in-process twin, on the campaigns
	// that probe it.
	if c <= lp.distReps {
		if !lp.dist {
			rec.time(c, "distnet.Decompose", probes, func() { lp.distnet(ctx, dpart, coreMethod, ranks, m, fail) })
			cfg := lp.dense.config(full, seed, method)
			cfg.Distributed = &m2td.DistributedConfig{Workers: nproc(), Shards: distShards, WorkDir: lp.dir("ref")}
			m.add("dist_campaign", rec.time(c, "m2td.RunCtx(distributed)", probes, func() {
				_, err := m2td.RunCtx(ctx, cfg)
				fail(err)
			}))
		}
		m.add("inproc_serial", rec.time(c, "m2td.RunCtx(serial)", probes, func() {
			_, err := m2td.RunCtx(ctx, lp.dense.config(serial, seed, method))
			fail(err)
		}))
	}
	return firstErr
}

// simProbe times single simulations, spread evenly over the parameter
// grid, and saves and reloads them as a SimSet — the checkpoint unit.
func (lp *layerProbe) simProbe(ctx context.Context, rec *recorder, c, parent int, space *ensemble.Space, m samples, st *store.Store, fail func(error)) {
	total := space.TotalSims()
	sims := make(map[int][]float64, simSample)
	idx := make([]int, space.NumParams())
	var us []float64
	for k := 0; k < simSample; k++ {
		key := k * total / simSample
		rem := key
		for p := len(idx) - 1; p >= 0; p-- {
			idx[p] = rem % space.Res
			rem /= space.Res
		}
		us = append(us, 1e6*rec.time(c, "Space.SimCellsCtx", parent, func() {
			cells, err := space.SimCellsCtx(ctx, idx)
			fail(err)
			sims[key] = cells
		}))
	}
	m.add("ensemble.sim_us", median(us))
	m.add("store.save_simset_s", rec.time(c, "store.SaveSimSet", parent, func() { fail(st.SaveSimSet("sims", "m2tdperf", sims)) }))
	m.add("store.load_simset_s", rec.time(c, "store.LoadSimSet", parent, func() {
		_, _, err := st.LoadSimSet("sims")
		fail(err)
	}))
}

// storeProbe saves and reloads one decomposition, as the server's commit
// and store-hit paths do.
func (lp *layerProbe) storeProbe(rec *recorder, c, parent int, res *core.Result, m samples, st *store.Store, fail func(error)) {
	dec := tucker.Decomposition{Core: res.Core, Factors: res.Factors, Ranks: append([]int(nil), res.Core.Shape...)}
	m.add("store.save_decomp_s", rec.time(c, "store.SaveDecomposition", parent, func() { fail(st.SaveDecomposition("dec", dec)) }))
	m.add("store.load_decomp_s", rec.time(c, "store.LoadDecomposition", parent, func() {
		_, err := st.LoadDecomposition("dec")
		fail(err)
	}))
	if fi, err := os.Stat(filepath.Join(st.Dir(), "dec.m2td")); err == nil {
		m.add("store.decomp_kb", float64(fi.Size())/1e3)
	} else {
		fail(err)
	}
}

// distnet runs the process engine on part in a fresh WorkDir and records
// its phase split; spawn is what the phases do not cover (listen, worker
// start-up, input upload, fusion, merge, shutdown).
func (lp *layerProbe) distnet(ctx context.Context, part *partition.Result, method core.Method, ranks []int, m samples, fail func(error)) *distnet.Result {
	workDir := lp.dir("work")
	start := time.Now()
	res, err := distnet.Decompose(ctx, part, distnet.Options{
		Method: method, Ranks: ranks, Workers: nproc(), Shards: distShards, WorkDir: workDir,
	})
	total := time.Since(start).Seconds()
	fail(err)
	if err != nil {
		return nil
	}
	p1, p2, p3 := res.Phase1.Duration.Seconds(), res.Phase2.Duration.Seconds(), res.Phase3.Duration.Seconds()
	m.add("distnet_total", total)
	m.add("distnet.phase1_s", p1)
	m.add("distnet.phase2_s", p2)
	m.add("distnet.phase3_s", p3)
	m.add("distnet.spawn_s", total-p1-p2-p3)
	m.add("distnet.tasks", float64(res.Phase1.Tasks+res.Phase2.Tasks+res.Phase3.Tasks))
	m.add("distnet.requeues", float64(res.Phase1.Requeues+res.Phase2.Requeues+res.Phase3.Requeues))
	entries, err := os.ReadDir(workDir)
	fail(err)
	var objects int
	var size int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && !e.IsDir() {
			objects++
			size += fi.Size()
		}
	}
	m.add("distnet.store_objects", float64(objects))
	m.add("distnet.store_mb", float64(size)/1e6)
	return res
}

// coreRecoveryCost computes, from shapes alone, the floating-point
// operations and the bytes moved by G = J ×₁ U(1)ᵀ … ×ₙ U(N)ᵀ as
// tensor.MultiTTMSparse evaluates it: one sparse mode-0 product over the
// stored cells, then a dense product per remaining mode on the shrinking
// intermediate. Cache misses are not in the byte count.
func coreRecoveryCost(join *tensor.Sparse, factors []*mat.Matrix) (flops, bytes float64) {
	nnz, order := float64(join.NNZ()), float64(join.Order())
	r0 := float64(factors[0].Cols)
	size := r0 // elements of the current intermediate
	for n := 1; n < len(factors); n++ {
		size *= float64(join.Shape[n])
	}
	flops = 2 * nnz * r0
	bytes = nnz*(8+8*order) + 8*size
	for n := 1; n < len(factors); n++ {
		in, rn := float64(join.Shape[n]), float64(factors[n].Cols)
		flops += 2 * size * rn
		out := size / in * rn
		bytes += 8 * (size + out)
		size = out
	}
	return flops, bytes
}

// procClock snapshots the process counters a traced pass reads beside
// the layer timings.
type procClock struct {
	wall time.Time
	cpu  float64
	mem  runtime.MemStats
}

func startProcClock() *procClock {
	pc := &procClock{wall: time.Now(), cpu: cpuSeconds()}
	runtime.ReadMemStats(&pc.mem)
	return pc
}

func (pc *procClock) report(s sheet, children bool) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	wall := time.Since(pc.wall).Seconds()
	s.set("proc.peak_rss_mb", peakRSSMB(children))
	s.set("proc.cpu_util", (cpuSeconds()-pc.cpu)/(wall*float64(nproc())))
	s.set("proc.gc_cycles", float64(now.NumGC-pc.mem.NumGC))
	s.set("proc.gc_pause_ms", float64(now.PauseTotalNs-pc.mem.PauseTotalNs)/1e6)
}
