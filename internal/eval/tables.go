package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/tucker"
)

// Defaults shared by the experiments, scaled from the paper's setting
// (resolution 70, rank 10, pivot = t, P = E = 100%); see DESIGN.md.
const (
	// DefaultRes replaces the paper's resolution 70.
	DefaultRes = 16
	// DefaultTime is the time-mode size (the paper used the parameter
	// resolution on every mode).
	DefaultTime = 16
	// DefaultRank replaces the paper's rank 10, preserving rank/resolution.
	DefaultRank = 4
	// DefaultSeed drives all sampling randomness.
	DefaultSeed = 1
)

// DefaultConfig returns the baseline experiment cell for a system: the
// scaled analogue of (resolution 70, rank 10, pivot = t, P = E = 100%).
func DefaultConfig(system string) Config {
	return Config{
		System:      system,
		Res:         DefaultRes,
		TimeSamples: DefaultTime,
		Rank:        DefaultRank,
		Pivot:       4, // time mode of the 5-mode ensembles
		PivotFrac:   1,
		FreeFrac:    1,
		Seed:        DefaultSeed,
	}
}

// baseOrDefault fills a zero-valued base config with the defaults for the
// given system; a non-zero base is used as-is (with the system overridden),
// letting callers shrink or grow every table's scale.
func baseOrDefault(base Config, system string) Config {
	if base.Res == 0 {
		return DefaultConfig(system)
	}
	base.System = system
	return base
}

// Table2 reproduces Table II: accuracy and decomposition time for the
// double pendulum across parameter resolutions and target ranks, under all
// six schemes. The paper's resolutions {60, 70, 80} and ranks {5, 10, 20}
// scale to the given slices (defaults {12, 16, 20} and {2, 4, 6}).
func Table2(ctx context.Context, base Config, resolutions, ranks []int) ([]*Comparison, error) {
	if len(resolutions) == 0 {
		resolutions = []int{12, 16, 20}
	}
	if len(ranks) == 0 {
		ranks = []int{2, 4, 6}
	}
	var out []*Comparison
	for _, res := range resolutions {
		cfg := baseOrDefault(base, "double-pendulum")
		cfg.Res = res
		cfg.TimeSamples = res
		// One ensemble per resolution: the rank rows only decompose it.
		space, part, err := cfg.ensemble(ctx)
		if err != nil {
			return nil, fmt.Errorf("table2 res=%d: %w", res, err)
		}
		for _, rank := range ranks {
			cfg.Rank = rank
			cmp, err := runComparisonOn(ctx, cfg, space, part)
			if err != nil {
				return nil, fmt.Errorf("table2 res=%d rank=%d: %w", res, rank, err)
			}
			out = append(out, cmp)
		}
	}
	return out, nil
}

// Table3Row is one server-count row of Table III: the wall-clock split of
// D-M2TD across its three phases as the paper runs them — the join
// stitched and projected — and, beside it, the same engine's total on the
// join-free route it takes by default.
type Table3Row struct {
	Workers int
	Phase1  time.Duration
	Phase2  time.Duration
	Phase3  time.Duration
	// JoinFree is dist.Decompose's total at the same server count: Phase 1
	// plus the per-shard projections, nothing stitched.
	JoinFree time.Duration
}

// Total returns the end-to-end distributed decomposition time.
func (r Table3Row) Total() time.Duration { return r.Phase1 + r.Phase2 + r.Phase3 }

// Table3 reproduces Table III: D-M2TD phase times for the double pendulum
// at the default configuration, for each worker ("server") count. The
// phase split is the materialised entry's (dist.DecomposeMaterialised),
// called directly: Phases 2 and 3 are the costs of building and projecting
// J, which the engine's default route no longer pays.
func Table3(ctx context.Context, base Config, workerCounts []int) ([]Table3Row, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8, 16}
	}
	cfg := baseOrDefault(base, "double-pendulum")
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		return nil, err
	}
	part, err := cfg.generate(ctx, space)
	if err != nil {
		return nil, err
	}
	ranks := tucker.UniformRanks(space.Order(), cfg.Rank)
	var rows []Table3Row
	for _, w := range workerCounts {
		// Every run starts without kernel plans, so Phase 1 pays for plan
		// compilation at each server count, not only in the first row.
		opts := dist.Options{Options: core.Options{Method: core.SELECT, Ranks: ranks}, Workers: w}
		res, err := dist.DecomposeMaterialised(part.PlanlessView(), opts)
		if err != nil {
			return nil, fmt.Errorf("table3 workers=%d: %w", w, err)
		}
		free, err := dist.Decompose(part.PlanlessView(), opts)
		if err != nil {
			return nil, fmt.Errorf("table3 workers=%d, join-free: %w", w, err)
		}
		rows = append(rows, Table3Row{
			Workers:  w,
			Phase1:   res.SubDecompTime,
			Phase2:   res.StitchTime,
			Phase3:   res.CoreTime,
			JoinFree: free.SubDecompTime + free.CoreTime,
		})
	}
	return rows, nil
}

// Table4 reproduces Table IV: the six-scheme comparison on the other two
// dynamical systems (triple pendulum and Lorenz) at the default
// configuration.
func Table4(ctx context.Context, base Config, systems []string) ([]*Comparison, error) {
	if len(systems) == 0 {
		systems = []string{"triple-pendulum", "lorenz"}
	}
	var out []*Comparison
	for _, sys := range systems {
		cmp, err := RunComparison(ctx, baseOrDefault(base, sys))
		if err != nil {
			return nil, fmt.Errorf("table4 %s: %w", sys, err)
		}
		out = append(out, cmp)
	}
	return out, nil
}

// Table5Row is one budget row of Table V.
type Table5Row struct {
	// BudgetFrac is the fraction of the full sub-ensemble budget
	// (the paper reduced it to 1/10).
	BudgetFrac float64
	// ZeroJoin reports whether zero-join stitching was used.
	ZeroJoin   bool
	Comparison *Comparison
}

// Table5 reproduces Table V: reduced simulation budgets with join vs
// zero-join stitching. budgetFracs defaults to the paper's {1.0, 0.1}.
func Table5(ctx context.Context, base Config, budgetFracs []float64) ([]Table5Row, error) {
	if len(budgetFracs) == 0 {
		budgetFracs = []float64{1.0, 0.1}
	}
	var rows []Table5Row
	for _, frac := range budgetFracs {
		cfg := baseOrDefault(base, "double-pendulum")
		cfg.FreeFrac = frac
		// Join and zero-join stitch the same simulations.
		space, part, err := cfg.ensemble(ctx)
		if err != nil {
			return nil, fmt.Errorf("table5 frac=%v: %w", frac, err)
		}
		for _, zero := range []bool{false, true} {
			if frac >= 1 && zero {
				// Zero-join is identical to join at full density.
				continue
			}
			cfg.ZeroJoin = zero
			cmp, err := runComparisonOn(ctx, cfg, space, part)
			if err != nil {
				return nil, fmt.Errorf("table5 frac=%v zero=%v: %w", frac, zero, err)
			}
			rows = append(rows, Table5Row{BudgetFrac: frac, ZeroJoin: zero, Comparison: cmp})
		}
	}
	return rows, nil
}

// FracRow is one density row of Tables VI and VII.
type FracRow struct {
	Frac       float64
	Comparison *Comparison
}

// Table6 reproduces Table VI: reduced pivot densities P (default
// {1.0, 0.5, 0.25}) at full sub-ensemble density.
func Table6(ctx context.Context, base Config, pivotFracs []float64) ([]FracRow, error) {
	if len(pivotFracs) == 0 {
		pivotFracs = []float64{1.0, 0.5, 0.25}
	}
	var rows []FracRow
	for _, frac := range pivotFracs {
		cfg := baseOrDefault(base, "double-pendulum")
		cfg.PivotFrac = frac
		cmp, err := RunComparison(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("table6 P=%v: %w", frac, err)
		}
		rows = append(rows, FracRow{Frac: frac, Comparison: cmp})
	}
	return rows, nil
}

// Table7 reproduces Table VII: reduced sub-ensemble densities E (default
// {1.0, 0.5, 0.25}) at full pivot density.
func Table7(ctx context.Context, base Config, freeFracs []float64) ([]FracRow, error) {
	if len(freeFracs) == 0 {
		freeFracs = []float64{1.0, 0.5, 0.25}
	}
	var rows []FracRow
	for _, frac := range freeFracs {
		cfg := baseOrDefault(base, "double-pendulum")
		cfg.FreeFrac = frac
		cmp, err := RunComparison(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("table7 E=%v: %w", frac, err)
		}
		rows = append(rows, FracRow{Frac: frac, Comparison: cmp})
	}
	return rows, nil
}

// PivotRow is one pivot-choice row of Table VIII.
type PivotRow struct {
	Pivot      int
	PivotName  string
	Comparison *Comparison
}

// Table8 reproduces Table VIII: the pivot parameter sweep over all five
// modes of the double-pendulum ensemble (t, φ₁, φ₂, m₁, m₂), with
// sub-systems keeping each pendulum's free parameters together.
func Table8(ctx context.Context, base Config, pivots []int) ([]PivotRow, error) {
	cfg := baseOrDefault(base, "double-pendulum")
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		return nil, err
	}
	if len(pivots) == 0 {
		// Paper order: t first, then the parameters.
		pivots = []int{4, 0, 1, 2, 3}
	}
	var rows []PivotRow
	for _, pivot := range pivots {
		c := cfg
		c.Pivot = pivot
		cmp, err := RunComparison(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("table8 pivot=%d: %w", pivot, err)
		}
		rows = append(rows, PivotRow{Pivot: pivot, PivotName: space.ModeName(pivot), Comparison: cmp})
	}
	return rows, nil
}
