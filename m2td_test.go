package m2td

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
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
	report, err := Run(smallConfig())
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
	report, err := Run(cfg)
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
		if _, err := Run(cfg); err != nil {
			t.Fatalf("method %q: %v", m, err)
		}
	}
	// Zero-valued config normalises to runnable defaults (slow at the real
	// default resolution, so only exercise validation here).
	cfg := Config{Method: "bogus"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus method accepted")
	}
}

func TestRunUnknownPivotAndSystem(t *testing.T) {
	cfg := smallConfig()
	cfg.Pivot = "nope"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown pivot accepted")
	}
	cfg = smallConfig()
	cfg.System = "nope"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestRunParameterPivot(t *testing.T) {
	cfg := smallConfig()
	cfg.Pivot = "phi1"
	report, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(report.Accuracy) {
		t.Fatal("accuracy not computed for parameter pivot")
	}
}

func TestRunDistributedMatchesSerial(t *testing.T) {
	serial, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Workers = 3
	distributed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(serial.Accuracy-distributed.Accuracy) > 1e-9 {
		t.Fatalf("distributed accuracy %v != serial %v", distributed.Accuracy, serial.Accuracy)
	}
}

func TestBaselineSchemes(t *testing.T) {
	m2tdReport, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"random", "grid", "slice"} {
		base, err := Baseline(smallConfig(), scheme, m2tdReport.NumSims)
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
	if _, err := Baseline(smallConfig(), "nope", 10); err == nil {
		t.Fatal("unknown baseline scheme accepted")
	}
}

func TestBuildingBlocks(t *testing.T) {
	space, err := eval.SpaceFor("double-pendulum", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Partition(space, space.TimeMode(), 1, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	j := Stitch(part, false)
	zj := Stitch(part, true)
	if zj.NNZ() <= j.NNZ() {
		t.Fatalf("zero-join %d not denser than join %d", zj.NNZ(), j.NNZ())
	}
	res, err := Decompose(part, core.SELECT, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// Decompose takes the join-free route: no J on the result, and the
	// join's size is the density formula — which must agree with Stitch.
	if res.Join != nil {
		t.Fatal("Decompose materialised a join on an intact partition")
	}
	if got := part.JoinCells(false); got != j.NNZ() {
		t.Fatalf("density formula says %d join cells, Stitch built %d", got, j.NNZ())
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
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ZeroJoin = true
	zero, err := Run(cfg)
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
	base, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Factored = true
	factored, err := Run(cfg)
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
	if _, err := Run(cfg); err == nil {
		t.Fatal("Factored+Workers accepted")
	}
}

func TestRunEstimatedAccuracyNearExact(t *testing.T) {
	exact, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.AccuracySampleSims = 1 << 20 // clamps to the full space: exact
	est, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Accuracy-exact.Accuracy) > 1e-9 {
		t.Fatalf("full-sample estimate %v != exact %v", est.Accuracy, exact.Accuracy)
	}
	cfg.AccuracySampleSims = 200
	partial, err := Run(cfg)
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
	est, err := Baseline(cfg, "random", 30)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Baseline(exactCfg, "random", 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Accuracy-exact.Accuracy) > 1e-9 {
		t.Fatalf("baseline full-sample estimate %v != exact %v", est.Accuracy, exact.Accuracy)
	}
}

func TestBaselineLatinHypercube(t *testing.T) {
	m2tdReport, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	lhs, err := Baseline(smallConfig(), "lhs", m2tdReport.NumSims)
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
	report, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(report.Accuracy) || report.Accuracy <= 0 {
		t.Fatalf("auto-pivot accuracy = %v", report.Accuracy)
	}
	// Auto must never lose badly against the default pivot: within a
	// factor given it optimises a pilot of the same objective.
	def, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if report.Accuracy < def.Accuracy/2 {
		t.Fatalf("auto pivot %v far below default %v", report.Accuracy, def.Accuracy)
	}
}
