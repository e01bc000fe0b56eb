// Package eval contains the evaluation harness: the paper's accuracy
// metric, runners for each experiment (Tables II–VIII of Section VII),
// and text renderers that print the same rows the paper reports.
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

// The six schemes compared throughout Section VII.
const (
	SchemeAVG    Scheme = "M2TD-AVG"
	SchemeCONCAT Scheme = "M2TD-CONCAT"
	SchemeSELECT Scheme = "M2TD-SELECT"
	SchemeRandom Scheme = "Random"
	SchemeGrid   Scheme = "Grid"
	SchemeSlice  Scheme = "Slice"
)

// AllSchemes lists the schemes in the paper's column order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeAVG, SchemeCONCAT, SchemeSELECT, SchemeRandom, SchemeGrid, SchemeSlice}
}

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
	// DecompTime covers decomposition only (for M2TD: sub-decompositions,
	// stitching and core recovery), excluding simulation time, matching
	// the paper's "decomposition time" columns.
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

// generate PF-partitions the experiment cell's space (pivot, P and E from
// the config, the system's parameter pairs kept together) and simulates
// both sub-ensembles.
func (cfg Config) generate(ctx context.Context, space *ensemble.Space) (*partition.Result, error) {
	pcfg := partition.DefaultConfig(space.Order(), cfg.Pivot, PairsFor(cfg.System))
	pcfg.PivotFrac, pcfg.FreeFrac = cfg.PivotFrac, cfg.FreeFrac
	return partition.GenerateCtx(ctx, space, pcfg, rand.New(rand.NewSource(cfg.Seed)), partition.SimOptions{})
}

// scorer returns the accuracy metric every scheme of one comparison is
// scored by: the exact metric against the ground-truth tensor, or — with
// EstimateSims set — its estimate on one fiber sample shared by all schemes,
// so scheme-to-scheme differences carry no sampling noise.
func (cfg Config) scorer(ctx context.Context, space *ensemble.Space) (func(TuckerModel) (float64, error), error) {
	if cfg.EstimateSims > 0 {
		fibers, err := SampleFibers(ctx, space, cfg.EstimateSims, rand.New(rand.NewSource(cfg.Seed+100)))
		if err != nil {
			return nil, err
		}
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

// RunComparison evaluates all six schemes on one experiment cell. The
// PF-partitioned sub-ensembles are generated once and shared by the three
// M2TD variants, which take core's dispatch rule (join-free while the
// partition is intact); the conventional schemes receive the same number of
// simulations (the paper's equal-budget comparison). EstimateSims picks the
// scorer and nothing else.
func RunComparison(ctx context.Context, cfg Config) (*Comparison, error) {
	space, part, err := cfg.ensemble(ctx)
	if err != nil {
		return nil, err
	}
	return runComparisonOn(ctx, cfg, space, part)
}

// ensemble returns the experiment cell's space and its simulated partition
// — what generate reads of a Config (system, resolution, time samples,
// pivot, P, E, seed) is the cell's simulation identity, so a sweep over any
// other field calls this once and runComparisonOn per row.
func (cfg Config) ensemble(ctx context.Context) (*ensemble.Space, *partition.Result, error) {
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		return nil, nil, err
	}
	part, err := cfg.generate(ctx, space)
	return space, part, err
}

// runComparisonOn is RunComparison over an already simulated partition of
// cfg's ensemble, which it only reads: NoiseFrac perturbs a copy.
func runComparisonOn(ctx context.Context, cfg Config, space *ensemble.Space, part *partition.Result) (*Comparison, error) {
	if cfg.NoiseFrac > 0 {
		sub1, sub2, noisy := *part.Sub1, *part.Sub2, *part
		sub1.Tensor, sub2.Tensor = sub1.Tensor.Clone(), sub2.Tensor.Clone()
		noisy.Sub1, noisy.Sub2 = &sub1, &sub2
		part = &noisy
		noiseRng := rand.New(rand.NewSource(cfg.Seed + 7))
		AddNoise(part.Sub1.Tensor, cfg.NoiseFrac, noiseRng)
		AddNoise(part.Sub2.Tensor, cfg.NoiseFrac, noiseRng)
	}
	budget := part.NumSims
	score, err := cfg.scorer(ctx, space)
	if err != nil {
		return nil, err
	}

	cmp := &Comparison{Config: cfg}
	ranks := tucker.UniformRanks(space.Order(), cfg.Rank)
	for _, method := range core.Methods() {
		res, err := core.DecomposeFactored(part, core.Options{Method: method, Ranks: ranks, ZeroJoin: cfg.ZeroJoin})
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
			DecompTime:  res.SubDecompTime + res.StitchTime + res.CoreTime,
			NumSims:     budget,
			EnsembleNNZ: part.JoinCells(cfg.ZeroJoin),
		})
	}

	for _, c := range []struct {
		scheme Scheme
		sims   []ensemble.Sim
	}{
		{SchemeRandom, ensemble.RandomSample(space, budget, rand.New(rand.NewSource(cfg.Seed+1)))},
		{SchemeGrid, ensemble.GridSample(space, budget)},
		{SchemeSlice, ensemble.SliceSample(space, budget, rand.New(rand.NewSource(cfg.Seed+2)))},
	} {
		row, err := cfg.conventionalRow(ctx, space, c.scheme, c.sims, cfg.Seed+8, score)
		if err != nil {
			return nil, err
		}
		cmp.Results = append(cmp.Results, row)
	}
	return cmp, nil
}
