// Package eval contains the evaluation harness: the paper's accuracy
// metric and its one scorer, the registry of scheme-comparison experiments
// (Tables II and IV–VIII of Section VII and the ablations shaped like them)
// with the one runner, renderer and exporter they share, and the tables that
// are not comparisons (I, III, Figure 6 and the pivot-selection report).
//
// The harness runs at configurable resolutions. Defaults are scaled down
// from the paper's 60–80 per mode (whose full tensors would need tens of
// GB) to 12–20 per mode, preserving mode count, pivot structure, density
// ratios and rank-to-resolution proportions; see DESIGN.md for the
// substitution argument.
package eval

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// Accuracy implements the paper's metric (Section VII-D):
//
//	accuracy(X̃, Y) = 1 − ‖X̃ − Y‖F / ‖Y‖F
//
// where X̃ is the reconstruction after sampling and decomposition and Y is
// the tensor over the full simulation space.
func Accuracy(recon, truth *tensor.Dense) float64 {
	return 1 - recon.Sub(truth).Norm()/truth.Norm()
}

// Scheme is one evaluated ensemble-construction scheme.
type Scheme string

// The six schemes compared throughout Section VII, and the two extra
// baselines of the extended comparison: Latin hypercube sampling
// (experiment-design literature) and the paper's naive union alternative
// (Section I-C).
const (
	SchemeAVG    Scheme = "M2TD-AVG"
	SchemeCONCAT Scheme = "M2TD-CONCAT"
	SchemeSELECT Scheme = "M2TD-SELECT"
	SchemeRandom Scheme = "Random"
	SchemeGrid   Scheme = "Grid"
	SchemeSlice  Scheme = "Slice"
	SchemeLHS    Scheme = "LHS"
	SchemeUnion  Scheme = "Union"
)

// Config describes one experiment cell.
type Config struct {
	// System names the dynamical system ("double-pendulum",
	// "triple-pendulum", "lorenz").
	System string
	// Res is the per-parameter grid resolution; TimeSamples the time-mode
	// size.
	Res, TimeSamples int
	// Rank is the uniform per-mode target decomposition rank.
	Rank int
	// Pivot is the pivot mode for PF-partitioning (the time mode by
	// default).
	Pivot int
	// PivotFrac and FreeFrac are the paper's P and E density knobs.
	PivotFrac, FreeFrac float64
	// ZeroJoin selects zero-join JE-stitching for M2TD schemes.
	ZeroJoin bool
	// NoiseFrac, when positive, perturbs every simulated cell with
	// zero-mean Gaussian noise of standard deviation NoiseFrac × the RMS
	// cell value before decomposition (robustness ablation).
	NoiseFrac float64
	// EstimateSims, when positive, scores every scheme by sampled-fiber
	// accuracy estimation over this many shared fibers instead of the
	// exact metric. Required beyond resolution ≈24, where the ground-truth
	// tensor stops fitting in memory.
	EstimateSims int
	// Seed drives all sampling randomness.
	Seed int64
}

// PairsFor returns the parameter pairs that PF-partitioning must keep in
// one sub-system for the named system. The double pendulum pairs each
// pendulum's angle with its mass (Table VIII's footnote); the other
// systems have no such constraint.
func PairsFor(system string) [][2]int {
	if system == "double-pendulum" {
		return [][2]int{{0, 2}, {1, 3}}
	}
	return nil
}

// spaceCache shares ensemble spaces (and therefore their cached ground
// truths and reference trajectories) across experiments in one process.
var spaceCache sync.Map

// SpaceFor returns the cached Space for a system/resolution combination.
func SpaceFor(system string, res, timeSamples int) (*ensemble.Space, error) {
	key := fmt.Sprintf("%s/%d/%d", system, res, timeSamples)
	if v, ok := spaceCache.Load(key); ok {
		return v.(*ensemble.Space), nil
	}
	sys, err := dynsys.ByName(system)
	if err != nil {
		return nil, err
	}
	space := ensemble.NewSpace(sys, res, timeSamples)
	actual, _ := spaceCache.LoadOrStore(key, space)
	return actual.(*ensemble.Space), nil
}

// SchemeResult is the outcome of one scheme on one experiment cell.
type SchemeResult struct {
	Scheme Scheme
	// Accuracy is the paper's reconstruction accuracy against the full
	// ground-truth tensor.
	Accuracy float64
	// DecompTime is the wall-clock around the decomposition call alone
	// (M2TD's join-free kernel, or a baseline's HOSVD), excluding
	// simulation time, matching the paper's "decomposition time" columns.
	DecompTime time.Duration
	// NumSims is the simulation budget the scheme consumed.
	NumSims int
	// EnsembleNNZ is the stored-cell count of the decomposed tensor (the
	// join tensor for M2TD schemes).
	EnsembleNNZ int
}

// Comparison is one experiment cell evaluated under every scheme with a
// shared simulation budget.
type Comparison struct {
	Config  Config
	Results []SchemeResult
}

// Get returns the result for a scheme.
func (c *Comparison) Get(s Scheme) (SchemeResult, bool) {
	for _, r := range c.Results {
		if r.Scheme == s {
			return r, true
		}
	}
	return SchemeResult{}, false
}

// Generate PF-partitions the experiment cell's space (pivot, P and E from
// the config, the system's parameter pairs kept together) and simulates
// both sub-ensembles under opts with the seed's rng. RunCtx partitions
// through it too; SimKey names its inputs.
func (cfg Config) Generate(ctx context.Context, space *ensemble.Space, opts partition.SimOptions) (*partition.Result, error) {
	pcfg := partition.DefaultConfig(space.Order(), cfg.Pivot, PairsFor(cfg.System))
	pcfg.PivotFrac, pcfg.FreeFrac = cfg.PivotFrac, cfg.FreeFrac
	return partition.GenerateCtx(ctx, space, pcfg, rand.New(rand.NewSource(cfg.Seed)), opts)
}

// Scorer returns the one accuracy metric of the repo: the exact metric
// against space's ground-truth tensor (built here, once), or — with
// estimateSims positive — its estimate on estimateSims sampled truth fibers,
// drawn once from seed and shared by every model scored, so differences
// between models are paired: each is still a sampled estimate, but both
// models are scored on the same fibres. Every accuracy a table, a sweep or
// a campaign reports is scored by the function this returns.
func Scorer(ctx context.Context, space *ensemble.Space, estimateSims int, seed int64) (func(TuckerModel) (float64, error), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if estimateSims > 0 {
		fibers := sampleFibers(space, estimateSims, rand.New(rand.NewSource(seed+100)))
		return func(m TuckerModel) (float64, error) { return EstimateFromFibers(m, fibers) }, nil
	}
	truth := space.GroundTruth()
	return func(m TuckerModel) (float64, error) {
		return Accuracy(tensor.TuckerReconstruct(m.Core, m.Factors), truth), nil
	}, nil
}

// conventionalRow evaluates one conventional scheme on its sampled
// simulations: encode, perturb like the M2TD inputs (NoiseFrac), HOSVD, score.
func (cfg Config) conventionalRow(ctx context.Context, space *ensemble.Space, scheme Scheme, sims []ensemble.Sim, noiseSeed int64, score func(TuckerModel) (float64, error)) (SchemeResult, error) {
	se, _, err := ensemble.EncodeCtx(ctx, space, sims, ensemble.SimOptions{})
	if err != nil {
		return SchemeResult{}, err
	}
	if cfg.NoiseFrac > 0 {
		AddNoise(se.Tensor, cfg.NoiseFrac, rand.New(rand.NewSource(noiseSeed)))
	}
	start := time.Now()
	dec := tucker.HOSVD(se.Tensor, tucker.UniformRanks(space.Order(), cfg.Rank))
	elapsed := time.Since(start)
	acc, err := score(TuckerModel{Core: dec.Core, Factors: dec.Factors})
	return SchemeResult{
		Scheme:      scheme,
		Accuracy:    acc,
		DecompTime:  elapsed,
		NumSims:     len(sims),
		EnsembleNNZ: se.Tensor.NNZ(),
	}, err
}

// RunComparison evaluates all six schemes on one experiment cell, simulated
// for this call alone. The PF-partitioned sub-ensembles are generated once
// and shared by the three M2TD variants, which decompose join-free; the
// conventional schemes receive the same number of simulations (the paper's
// equal-budget comparison). EstimateSims picks the scorer and nothing else.
func RunComparison(ctx context.Context, cfg Config) (*Comparison, error) {
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		return nil, err
	}
	part, err := cfg.Generate(ctx, space, partition.SimOptions{})
	if err != nil {
		return nil, err
	}
	return cfg.compare(ctx, part, false)
}

// SimKey is the identity of a simulated partition: Generate's inputs, with
// the pivot as a mode name or "auto" (SelectPivot's pilot run at Rank and
// Seed), and the fan-out's injector. Equal Strings mean bit-identical
// partitions, so every store of simulations — a run's checkpoint, the
// server's sims- catalogs, this package's partition cache — is keyed by it.
type SimKey struct {
	System              string
	Res, TimeSamples    int
	Pivot               string
	PivotFrac, FreeFrac float64
	Seed                int64
	Rank                int
	Faults              *faults.Config
}

// String names each input only where it can change a cell: the seed when
// the partition draws from its rng or seeds the pilot, the rank under
// "auto", the injector by faults.CellKey. Its version, sim-v3, names the
// simulation kernels' arithmetic: a change that moves any cell's last bit
// must bump it, so no stored cell of the old kernel is restored.
func (k SimKey) String() string {
	key := fmt.Sprintf("sim-v3|%s|res=%d|t=%d|pivot=%q|P=%g|E=%g",
		k.System, k.Res, k.TimeSamples, k.Pivot, k.PivotFrac, k.FreeFrac)
	if k.Pivot == "auto" {
		key += fmt.Sprintf("|seed=%d|pilot-rank=%d", k.Seed, k.Rank)
	} else if (partition.Config{PivotFrac: k.PivotFrac, FreeFrac: k.FreeFrac}).Draws() {
		key += fmt.Sprintf("|seed=%d", k.Seed)
	}
	if f := faults.CellKey(k.Faults); f != "" {
		key += "|" + f
	}
	return key
}

// partitionCache holds the most recently used simulated partitions, so that
// cells which differ only in what is decomposed and how it is scored — rank,
// stitching, noise, scorer — share one simulation, within a table and across
// the tables of one process. Nothing that reads a partition writes to it
// (NoiseFrac perturbs a copy). It is bounded so that a sweep over seeds pins
// a handful of partitions, not one per seed.
var partitionCache struct {
	sync.Mutex
	recent []cachedPartition // most recently used first
}

type cachedPartition struct {
	key  string
	part *partition.Result
}

const partitionCacheSize = 8

// ensemble returns the experiment cell's simulated partition (its space is
// the partition's Space), shared with every other cell of the same
// simulation identity.
func (cfg Config) ensemble(ctx context.Context) (*partition.Result, error) {
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		return nil, err
	}
	key := SimKey{System: cfg.System, Res: cfg.Res, TimeSamples: cfg.TimeSamples, Pivot: space.ModeName(cfg.Pivot),
		PivotFrac: cfg.PivotFrac, FreeFrac: cfg.FreeFrac, Seed: cfg.Seed}.String()
	c := &partitionCache
	c.Lock()
	for i, hit := range c.recent {
		if hit.key == key {
			copy(c.recent[1:i+1], c.recent[:i])
			c.recent[0] = hit
			c.Unlock()
			return hit.part, nil
		}
	}
	c.Unlock()
	// Simulated outside the lock: two concurrent misses on one identity
	// both simulate, to the same bits.
	part, err := cfg.Generate(ctx, space, partition.SimOptions{})
	if err != nil {
		return nil, err
	}
	c.Lock()
	c.recent = append([]cachedPartition{{key, part}}, c.recent...)
	if len(c.recent) > partitionCacheSize {
		c.recent = c.recent[:partitionCacheSize]
	}
	c.Unlock()
	return part, nil
}

// compare evaluates every scheme on cfg's cell over an already simulated
// partition of its ensemble, which it only reads: the six schemes of
// Section VII and, when extended, the LHS and Union baselines at the same
// budget, every one scored by the cell's one scorer.
func (cfg Config) compare(ctx context.Context, part *partition.Result, extended bool) (*Comparison, error) {
	space := part.Space
	if cfg.NoiseFrac > 0 {
		// The partition may be shared with other cells: perturb a copy of
		// it, down to the sub-tensors, never the shared values.
		own, sub1, sub2 := *part, *part.Sub1, *part.Sub2
		sub1.Tensor, sub2.Tensor = sub1.Tensor.Clone(), sub2.Tensor.Clone()
		own.Sub1, own.Sub2 = &sub1, &sub2
		part = &own
		noiseRng := rand.New(rand.NewSource(cfg.Seed + 7))
		AddNoise(part.Sub1.Tensor, cfg.NoiseFrac, noiseRng)
		AddNoise(part.Sub2.Tensor, cfg.NoiseFrac, noiseRng)
	}
	budget := part.NumSims
	score, err := Scorer(ctx, space, cfg.EstimateSims, cfg.Seed)
	if err != nil {
		return nil, err
	}

	cmp := &Comparison{Config: cfg}
	ranks := tucker.UniformRanks(space.Order(), cfg.Rank)
	for _, method := range core.Methods() {
		start := time.Now()
		res, err := core.DecomposeFactored(part, core.Options{Method: method, Ranks: ranks, ZeroJoin: cfg.ZeroJoin})
		elapsed := time.Since(start)
		if err != nil {
			return nil, err
		}
		acc, err := score(TuckerModel{Core: res.Core, Factors: res.Factors})
		if err != nil {
			return nil, err
		}
		cmp.Results = append(cmp.Results, SchemeResult{
			Scheme:      Scheme(method),
			Accuracy:    acc,
			DecompTime:  elapsed,
			NumSims:     budget,
			EnsembleNNZ: part.JoinCells(cfg.ZeroJoin),
		})
	}

	type sampled struct {
		scheme    Scheme
		sims      []ensemble.Sim
		noiseSeed int64
	}
	conventional := []sampled{
		{SchemeRandom, ensemble.RandomSample(space, budget, rand.New(rand.NewSource(cfg.Seed+1))), cfg.Seed + 8},
		{SchemeGrid, ensemble.GridSample(space, budget), cfg.Seed + 8},
		{SchemeSlice, ensemble.SliceSample(space, budget, rand.New(rand.NewSource(cfg.Seed+2))), cfg.Seed + 8},
	}
	if extended {
		// LHS probes whether smarter space-filling alone closes the gap
		// (it does not).
		conventional = append(conventional, sampled{SchemeLHS,
			ensemble.LatinHypercubeSample(space, budget, rand.New(rand.NewSource(cfg.Seed+3))), cfg.Seed + 9})
	}
	for _, c := range conventional {
		row, err := cfg.conventionalRow(ctx, space, c.scheme, c.sims, c.noiseSeed, score)
		if err != nil {
			return nil, err
		}
		cmp.Results = append(cmp.Results, row)
	}
	if extended {
		// Union quantifies the paper's argument for stitching over
		// pooling, on the sub-ensembles the M2TD rows decomposed.
		union, err := UnionResult(part, cfg.Rank, score)
		if err != nil {
			return nil, err
		}
		cmp.Results = append(cmp.Results, union)
	}
	return cmp, nil
}
