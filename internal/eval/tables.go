package eval

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
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

// Table3Row is one server-count row of Table III: the wall-clock split of
// D-M2TD across its three phases as the paper runs them — the join
// stitched and projected — and, beside it, the same engine's total on the
// join-free route it takes by default.
type Table3Row struct {
	Workers int
	Phase1  time.Duration
	Phase2  time.Duration
	Phase3  time.Duration
	// JoinFree is core.DecomposeFactored's total at the same server count:
	// Phase 1 plus the per-shard projections, nothing stitched.
	JoinFree time.Duration
}

// Total returns the end-to-end distributed decomposition time.
func (r Table3Row) Total() time.Duration { return r.Phase1 + r.Phase2 + r.Phase3 }

// Table3 reproduces Table III: D-M2TD phase times for the double pendulum
// at the default configuration, for each worker ("server") count — both
// the pool size and the shard count of every phase. The phase split is the
// materialised entry's (core.DecomposeCtx, Algorithm 6 at Shards > 1):
// Phases 2 and 3 are the costs of building and projecting J, which every
// campaign's route no longer pays.
func Table3(ctx context.Context, base Config, workerCounts []int) ([]Table3Row, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8, 16}
	}
	cfg := baseOrDefault(base, "double-pendulum")
	part, err := cfg.ensemble(ctx)
	if err != nil {
		return nil, err
	}
	ranks := tucker.UniformRanks(part.Space.Order(), cfg.Rank)
	var rows []Table3Row
	for _, w := range workerCounts {
		// The phase times are the spans core opens per phase.
		stitched, free := obs.New("table3").Root(), obs.New("table3").Root()
		opts := core.Options{Method: core.SELECT, Ranks: ranks, Workers: w, Shards: w, Span: stitched}
		if _, err := core.DecomposeCtx(ctx, part, opts); err != nil {
			return nil, fmt.Errorf("table3 workers=%d: %w", w, err)
		}
		opts.Span = free
		if _, err := core.DecomposeFactored(part, opts); err != nil {
			return nil, fmt.Errorf("table3 workers=%d, join-free: %w", w, err)
		}
		rows = append(rows, Table3Row{
			Workers:  w,
			Phase1:   stitched.Find("factors").Duration(),
			Phase2:   stitched.Find("stitch").Duration(),
			Phase3:   stitched.Find("core").Duration(),
			JoinFree: free.Find("factors").Duration() + free.Find("core").Duration(),
		})
	}
	return rows, nil
}

// RenderTable3 prints the Table III analogue: D-M2TD phase times per
// worker count on the materialised route, and the join-free total beside
// them.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "TABLE III: D-M2TD phase time split by server count (ms; phases as the paper runs them, J stitched and projected)")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Servers\tPhase1\tPhase2\tPhase3\tTotal\tJoin-free total")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\n",
			r.Workers, fmtDur(r.Phase1), fmtDur(r.Phase2), fmtDur(r.Phase3), fmtDur(r.Total()), fmtDur(r.JoinFree))
	}
	tw.Flush()
}
