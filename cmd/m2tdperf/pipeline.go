package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	m2td "repro"
	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/tensor"
)

// methods are the three fusion strategies every workload cycles through.
var methods = []m2td.Method{m2td.MethodAVG, m2td.MethodCONCAT, m2td.MethodSELECT}

// system is the dynamical system every workload simulates (the paper's
// default).
const system = m2td.SystemDoublePendulum

// accuracySims and accuracySeed fix the sampled accuracy estimate of the
// workloads whose ground-truth tensor is too large (or too slow to build
// several times per run) to materialise.
const (
	accuracySims = 400
	accuracySeed = 20180416
)

// shape is the size of one campaign: resolution res on every parameter
// mode and the time mode, uniform Tucker rank, P = E = 1, pivot t.
type shape struct {
	res, rank int
}

// config is the shape's campaign on arm a. Accuracy is never evaluated
// inside a timed campaign; verify computes it afterwards from the outputs.
func (sh shape) config(a arm, seed int64, method m2td.Method) m2td.Config {
	return m2td.Config{
		System:       system,
		Resolution:   sh.res,
		TimeSamples:  sh.res,
		Rank:         sh.rank,
		Method:       method,
		Seed:         seed,
		Parallel:     a.parallel(),
		SkipAccuracy: true,
	}
}

// freshSpace builds a space that shares nothing with eval.SpaceFor's
// process-wide cache, so a repeated set-up pays for its reference
// trajectory and ground truth again.
func (sh shape) freshSpace() *ensemble.Space {
	return ensemble.NewSpace(dynsys.NewDoublePendulum(), sh.res, sh.res)
}

// paramRanges are the system's physical parameter ranges, for predict
// points.
var paramRanges = dynsys.NewDoublePendulum().Params()

// pipeline is a workload whose campaign is one m2td.RunCtx call:
// dense-join, factored-sim and dist-procs differ only in shape and engine.
type pipeline struct {
	name     string
	shape    shape
	factored bool
	// probeShape is where a factored workload's traced pass measures the
	// kernels its own campaign never enters.
	probeShape shape
	dist       bool // Config.Distributed: units() worker processes, 4 shards
	seed       int64
	scratch    string // directory for per-campaign WorkDirs

	truth   *tensor.Dense // exact ground truth; nil when accuracy is sampled
	space   *ensemble.Space
	next    [2]int                       // campaigns started, per arm
	kept    map[m2td.Method]*core.Result // first full-arm output per method
	workDir int
}

// distShards fixes the D-M2TD task count — the determinism unit — on both
// arms, so they must produce bit-identical decompositions.
const distShards = 4

// config builds campaign i of arm a. The benchmark seed drives the
// campaign seed and where the method rotation starts.
func (p *pipeline) config(a arm, i int) m2td.Config {
	cfg := p.shape.config(a, campaignSeed(p.seed, a, i), methods[(int(p.seed%3)+3+i)%3])
	p.engine(&cfg, a)
	return cfg
}

// engine selects the workload's decomposition engine on cfg.
func (p *pipeline) engine(cfg *m2td.Config, a arm) {
	cfg.Factored = p.factored
	if p.dist {
		p.workDir++
		cfg.Distributed = &m2td.DistributedConfig{
			Workers: a.units(),
			Shards:  distShards,
			WorkDir: filepath.Join(p.scratch, fmt.Sprintf("dist-%d", p.workDir)),
		}
	}
}

// campaignSeed derives a positive per-campaign seed from the benchmark
// seed, distinct across arms and campaigns.
func campaignSeed(seed int64, a arm, i int) int64 {
	s := seed*1_000_003 + int64(a)*500_009 + int64(i) + 1
	if s < 0 {
		s = -s
	}
	return s%math.MaxInt32 + 1
}

func (p *pipeline) setUp(ctx context.Context, t *tally) error {
	space := p.shape.freshSpace()
	space.Reference()
	p.space, p.truth = space, nil
	if !p.factored {
		p.truth = space.GroundTruth()
	}
	if p.kept == nil { // campaigns and kept outputs carry on across set-ups
		p.kept = make(map[m2td.Method]*core.Result)
	}
	// One untimed warm-up campaign: lazy caches fill before timing.
	warm := p.shape.config(full, campaignSeed(p.seed, full, -1), m2td.MethodSELECT)
	p.engine(&warm, full)
	_, err := m2td.RunCtx(ctx, warm)
	t.op(err)
	p.afterUnit()
	return err
}

func (p *pipeline) tearDown(context.Context, *tally) { p.afterUnit() }

// afterUnit removes the finished campaign's WorkDir, outside the unit's
// timing.
func (p *pipeline) afterUnit() {
	if !p.dist {
		return
	}
	dirs, _ := filepath.Glob(filepath.Join(p.scratch, "dist-*"))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

func (p *pipeline) unit(ctx context.Context, a arm, t *tally) []float64 {
	cfg := p.config(a, p.next[a])
	p.next[a]++
	start := time.Now()
	report, err := m2td.RunCtx(ctx, cfg)
	lat := time.Since(start).Seconds()
	t.op(err)
	if err != nil {
		return nil
	}
	if a == full {
		if _, ok := p.kept[cfg.Method]; !ok {
			p.kept[cfg.Method] = report.Decomposition
		}
	}
	return []float64{lat}
}

// verify runs the output checks: one fixed configuration must decompose
// to the same bits on both arms, a distributed result must match the
// in-process serial one, and the accuracy of what the full arm produced
// is the mean over the methods (P = E = 1 makes the campaign seed inert,
// so the methods are the workload's distinct configurations).
func (p *pipeline) verify(ctx context.Context, t *tally) (float64, error) {
	fixedSeed := campaignSeed(p.seed, serial, -2)
	var hashes [2]uint64
	var outputs [2]*core.Result
	for _, a := range []arm{full, serial} {
		cfg := p.shape.config(a, fixedSeed, m2td.MethodSELECT)
		p.engine(&cfg, a)
		report, err := m2td.RunCtx(ctx, cfg)
		t.op(err)
		if err != nil {
			return 0, err
		}
		outputs[a], hashes[a] = report.Decomposition, decompFingerprint(report.Decomposition)
	}
	t.check(hashes[full] == hashes[serial], "%s: full arm %016x and serial arm %016x decompositions differ", p.name, hashes[full], hashes[serial])
	if p.dist {
		report, err := m2td.RunCtx(ctx, p.shape.config(serial, fixedSeed, m2td.MethodSELECT))
		t.op(err)
		if err != nil {
			return 0, err
		}
		d := maxRelDiff(outputs[full], report.Decomposition)
		t.check(d <= 1e-9, "%s: distributed result differs from in-process serial by %g (> 1e-9)", p.name, d)
	}
	p.afterUnit()

	// A smoke run is too short to reach every method; a timed run's twenty
	// and more campaigns per arm always do. Summing in method order keeps
	// the mean the same to the last bit.
	if len(p.kept) == 0 {
		return 0, fmt.Errorf("full arm kept no output")
	}
	var sum float64
	for _, m := range methods {
		res, ok := p.kept[m]
		if !ok {
			continue
		}
		acc, err := p.accuracy(res)
		if err != nil {
			return 0, err
		}
		sum += acc
	}
	return sum / float64(len(p.kept)), nil
}

// accuracy is the paper's 1 − ‖X̃−Y‖F/‖Y‖F for one output: exact against
// the ground truth set-up built, or the fixed-seed sampled estimate.
func (p *pipeline) accuracy(res *core.Result) (float64, error) {
	if p.truth != nil {
		return eval.Accuracy(res.Reconstruct(), p.truth), nil
	}
	return sampledAccuracy(p.space, res)
}

func sampledAccuracy(space *ensemble.Space, res *core.Result) (float64, error) {
	model := eval.TuckerModel{Core: res.Core, Factors: res.Factors}
	return eval.EstimateAccuracy(space, model, accuracySims, rand.New(rand.NewSource(accuracySeed)))
}

// decompFingerprint hashes the decomposition's exact bits — FNV-1a over
// the core and then each factor's dimensions and data — the same figure
// m2tdbench prints, so two runs compare for bit-identity.
func decompFingerprint(res *core.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, v := range res.Core.Data {
		word(math.Float64bits(v))
	}
	for _, f := range res.Factors {
		word(uint64(f.Rows)<<32 | uint64(f.Cols))
		for _, v := range f.Data {
			word(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// maxRelDiff is the largest element-wise difference between two
// decompositions' cores and factors, relative to the largest magnitude in
// the reference.
func maxRelDiff(got, want *core.Result) float64 {
	var diff, scale float64
	cmp := func(a, b []float64) {
		if len(a) != len(b) {
			diff = math.Inf(1)
			return
		}
		for i := range a {
			diff = math.Max(diff, math.Abs(a[i]-b[i]))
			scale = math.Max(scale, math.Abs(b[i]))
		}
	}
	cmp(got.Core.Data, want.Core.Data)
	if len(got.Factors) != len(want.Factors) {
		return math.Inf(1)
	}
	for i := range got.Factors {
		cmp(got.Factors[i].Data, want.Factors[i].Data)
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

func (p *pipeline) probe(reps int) (layerProbe, int) {
	lp := layerProbe{
		primary: p.shape, factored: p.factored, dist: p.dist, dense: p.shape,
		sampled: p.factored, reps: reps, distReps: 3, seed: p.seed, scratch: p.scratch,
	}
	if p.factored {
		lp.dense = p.probeShape
	}
	if p.dist {
		lp.distReps = reps
	}
	return lp, 1
}
