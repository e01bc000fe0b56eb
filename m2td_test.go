package m2td

import (
	"context"
	"math"
	"repro/internal/faults"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/stitch"
	"repro/internal/tucker"
)

// smallConfig keeps facade tests fast.
func smallConfig() Config {
	return Config{
		System:      "double-pendulum",
		Resolution:  5,
		TimeSamples: 4,
		Rank:        2,
		Method:      "select",
		Seed:        7,
	}
}

func TestSystems(t *testing.T) {
	got := Systems()
	want := []string{"double-pendulum", "triple-pendulum", "lorenz", "seir"}
	if len(got) != len(want) {
		t.Fatalf("Systems() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Systems() = %v, want %v", got, want)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	report, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if report.NumSims <= 0 || report.JoinCells <= 0 {
		t.Fatalf("budget accounting: %+v", report)
	}
	if math.IsNaN(report.Accuracy) {
		t.Fatal("accuracy not computed")
	}
	if report.Accuracy <= 0 || report.Accuracy >= 1 {
		t.Fatalf("accuracy = %v, want in (0, 1)", report.Accuracy)
	}
	if report.Decomposition == nil || len(report.Decomposition.Factors) != 5 {
		t.Fatal("decomposition missing")
	}
	if report.DecompTime <= 0 {
		t.Fatal("decomposition time not recorded")
	}
}

func TestRunSkipAccuracy(t *testing.T) {
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(report.Accuracy) {
		t.Fatalf("accuracy = %v, want NaN when skipped", report.Accuracy)
	}
}

func TestRunAllMethodsAndDefaults(t *testing.T) {
	for _, m := range []string{"avg", "concat", "select", "AVG", "M2TD-SELECT"} {
		cfg := smallConfig()
		cfg.Method = Method(m)
		if _, err := RunCtx(context.Background(), cfg); err != nil {
			t.Fatalf("method %q: %v", m, err)
		}
	}
	// Zero-valued config normalises to runnable defaults (slow at the real
	// default resolution, so only exercise validation here).
	cfg := Config{Method: "bogus"}
	if _, err := RunCtx(context.Background(), cfg); err == nil {
		t.Fatal("bogus method accepted")
	}
}

func TestRunUnknownPivotAndSystem(t *testing.T) {
	cfg := smallConfig()
	cfg.Pivot = "nope"
	if _, err := RunCtx(context.Background(), cfg); err == nil {
		t.Fatal("unknown pivot accepted")
	}
	cfg = smallConfig()
	cfg.System = "nope"
	if _, err := RunCtx(context.Background(), cfg); err == nil {
		t.Fatal("unknown system accepted")
	}
}

// TestCheckPivot: every mode name of the system and "auto" pass, and the
// default is time; a name the system lacks fails, as RunCtx would.
func TestCheckPivot(t *testing.T) {
	for _, c := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{}, true},
		{Config{Pivot: "auto"}, true},
		{Config{Pivot: "phi1"}, true},
		{Config{System: SystemLorenz, Pivot: "rho"}, true},
		{Config{System: SystemLorenz, Pivot: "t"}, true},
		{Config{Pivot: "no-such-pivot"}, false},
		{Config{System: SystemLorenz, Pivot: "phi1"}, false},
		{Config{System: "nope"}, false},
	} {
		if err := c.cfg.CheckPivot(); (err == nil) != c.ok {
			t.Errorf("%+v: CheckPivot = %v, want ok %v", c.cfg, err, c.ok)
		}
	}
}

func TestRunParameterPivot(t *testing.T) {
	cfg := smallConfig()
	cfg.Pivot = "phi1"
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(report.Accuracy) {
		t.Fatal("accuracy not computed for parameter pivot")
	}
}

func TestRunDistributedMatchesSerial(t *testing.T) {
	serial, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Workers = 3
	distributed, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(serial.Accuracy-distributed.Accuracy) > 1e-9 {
		t.Fatalf("distributed accuracy %v != serial %v", distributed.Accuracy, serial.Accuracy)
	}
}

func TestBaselineSchemes(t *testing.T) {
	m2tdReport, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"random", "grid", "slice"} {
		base, err := BaselineCtx(context.Background(), smallConfig(), scheme, m2tdReport.NumSims)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if base.NumSims > m2tdReport.NumSims {
			t.Fatalf("%s exceeded budget", scheme)
		}
		if base.Accuracy >= m2tdReport.Accuracy {
			t.Fatalf("%s accuracy %v >= M2TD %v (paper's headline violated)", scheme, base.Accuracy, m2tdReport.Accuracy)
		}
	}
	if _, err := BaselineCtx(context.Background(), smallConfig(), "nope", 10); err == nil {
		t.Fatal("unknown baseline scheme accepted")
	}
}

func TestBuildingBlocks(t *testing.T) {
	space, err := eval.SpaceFor("double-pendulum", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	part := partitionAt(t, space, space.TimeMode(), 1, 0.5, 3)
	j, zj := stitch.Join(part), stitch.ZeroJoin(part)
	if zj.NNZ() <= j.NNZ() {
		t.Fatalf("zero-join %d not denser than join %d", zj.NNZ(), j.NNZ())
	}
	res, err := core.DecomposeFactored(part, core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(space.Order(), 2)})
	if err != nil {
		t.Fatal(err)
	}
	// The join-free kernel builds no J, and the join's size is the density
	// formula — which must agree with stitching.
	if res.Join != nil {
		t.Fatal("core.DecomposeFactored materialised a join on an intact partition")
	}
	if got := part.JoinCells(false); got != j.NNZ() {
		t.Fatalf("density formula says %d join cells, stitch.Join built %d", got, j.NNZ())
	}
	if got := part.JoinCells(true); got != zj.NNZ() {
		t.Fatalf("density formula says %d zero-join cells, Stitch built %d", got, zj.NNZ())
	}
}

func TestZeroJoinImprovesLowBudgetAccuracy(t *testing.T) {
	// Table V's shape: at a low sub-ensemble density, zero-join stitching
	// should not hurt (and usually helps) reconstruction accuracy.
	cfg := smallConfig()
	cfg.SubEnsembleDensity = 0.3
	plain, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ZeroJoin = true
	zero, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if zero.JoinCells <= plain.JoinCells {
		t.Fatal("zero-join did not increase effective density")
	}
}

// TestRunFactoredMatchesDefault: Factored only forbids the fallback — on
// an intact campaign it is the default route, so the two runs agree to the
// bit, neither builds a join, and both report the join's size.
func TestRunFactoredMatchesDefault(t *testing.T) {
	base, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Factored = true
	factored, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "Factored vs default", factored.Decomposition, base.Decomposition)
	if base.Accuracy != factored.Accuracy {
		t.Fatalf("factored accuracy %v != default %v", factored.Accuracy, base.Accuracy)
	}
	if base.Decomposition.Join != nil || factored.Decomposition.Join != nil {
		t.Fatal("an intact campaign should not materialise a join tensor")
	}
	if factored.JoinCells != base.JoinCells || base.JoinCells != 5*5*5*5*4 {
		t.Fatalf("JoinCells: factored %d, default %d, want the full-density join's %d", factored.JoinCells, base.JoinCells, 5*5*5*5*4)
	}
}

func TestRunFactoredWorkersConflict(t *testing.T) {
	cfg := smallConfig()
	cfg.Factored = true
	cfg.Workers = 2
	if _, err := RunCtx(context.Background(), cfg); err == nil {
		t.Fatal("Factored+Workers accepted")
	}
}

func TestRunEstimatedAccuracyNearExact(t *testing.T) {
	exact, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.AccuracySampleSims = 1 << 20 // clamps to the full space: exact
	est, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Accuracy-exact.Accuracy) > 1e-9 {
		t.Fatalf("full-sample estimate %v != exact %v", est.Accuracy, exact.Accuracy)
	}
	cfg.AccuracySampleSims = 200
	partial, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(partial.Accuracy-exact.Accuracy) > 0.2 {
		t.Fatalf("partial estimate %v far from exact %v", partial.Accuracy, exact.Accuracy)
	}
}

func TestBaselineEstimatedAccuracy(t *testing.T) {
	cfg := smallConfig()
	cfg.AccuracySampleSims = 1 << 20
	exactCfg := smallConfig()
	est, err := BaselineCtx(context.Background(), cfg, "random", 30)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := BaselineCtx(context.Background(), exactCfg, "random", 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Accuracy-exact.Accuracy) > 1e-9 {
		t.Fatalf("baseline full-sample estimate %v != exact %v", est.Accuracy, exact.Accuracy)
	}
}

func TestBaselineLatinHypercube(t *testing.T) {
	m2tdReport, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	lhs, err := BaselineCtx(context.Background(), smallConfig(), "lhs", m2tdReport.NumSims)
	if err != nil {
		t.Fatal(err)
	}
	if lhs.NumSims > m2tdReport.NumSims {
		t.Fatal("LHS exceeded budget")
	}
	if lhs.Accuracy >= m2tdReport.Accuracy {
		t.Fatalf("LHS accuracy %v >= M2TD %v (headline violated)", lhs.Accuracy, m2tdReport.Accuracy)
	}
}

func TestRunAutoPivot(t *testing.T) {
	cfg := smallConfig()
	cfg.Pivot = "auto"
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(report.Accuracy) || report.Accuracy <= 0 {
		t.Fatalf("auto-pivot accuracy = %v", report.Accuracy)
	}
	// Auto must never lose badly against the default pivot: within a
	// factor given it optimises a pilot of the same objective.
	def, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if report.Accuracy < def.Accuracy/2 {
		t.Fatalf("auto pivot %v far below default %v", report.Accuracy, def.Accuracy)
	}
}

// TestRouteOptionsExclusive: Workers, Distributed and Factored each
// name the decomposition's route, so every pair of them is rejected — by
// RunCtx and BaselineCtx alike, and before a single simulation has run.
func TestRouteOptionsExclusive(t *testing.T) {
	routes := []struct {
		name string
		set  func(*Config)
	}{
		{"Workers", func(c *Config) { c.Workers = 2 }},
		{"Distributed", func(c *Config) { c.Distributed = &DistributedConfig{Workers: 2} }},
		{"Factored", func(c *Config) { c.Factored = true }},
	}
	for i, a := range routes {
		for _, b := range routes[i+1:] {
			var sims atomic.Int64
			cfg := smallConfig()
			cfg.Faults = &faults.Config{Seed: 1, Hook: func() { sims.Add(1) }}
			a.set(&cfg)
			b.set(&cfg)
			_, runErr := RunCtx(context.Background(), cfg)
			_, baseErr := BaselineCtx(context.Background(), cfg, "random", 10)
			for entry, err := range map[string]error{"RunCtx": runErr, "BaselineCtx": baseErr} {
				if err == nil || !strings.Contains(err.Error(), a.name) || !strings.Contains(err.Error(), b.name) {
					t.Errorf("%s with %s+%s: want a rejection naming both, got %v", entry, a.name, b.name, err)
				}
			}
			if n := sims.Load(); n != 0 {
				t.Errorf("%s+%s: %d simulation attempts ran before the rejection", a.name, b.name, n)
			}
		}
	}
}
