package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// testConfig returns a small, fast experiment cell.
func testConfig(system string) Config {
	cfg := DefaultConfig(system)
	cfg.Res = 6
	cfg.TimeSamples = 5
	cfg.Rank = 2
	return cfg
}

func TestAccuracyMetric(t *testing.T) {
	y := tensor.DenseFromSlice(tensor.Shape{2}, []float64{3, 4})
	if got := Accuracy(y.Clone(), y); math.Abs(got-1) > 1e-14 {
		t.Fatalf("perfect reconstruction accuracy = %v, want 1", got)
	}
	zero := tensor.NewDense(tensor.Shape{2})
	if got := Accuracy(zero, y); math.Abs(got) > 1e-14 {
		t.Fatalf("zero reconstruction accuracy = %v, want 0", got)
	}
	// Worse than zero: accuracy goes negative.
	worse := tensor.DenseFromSlice(tensor.Shape{2}, []float64{-3, -4})
	if got := Accuracy(worse, y); got >= 0 {
		t.Fatalf("anti-reconstruction accuracy = %v, want negative", got)
	}
}

func TestSpaceForCachesAndValidates(t *testing.T) {
	a, err := SpaceFor("double-pendulum", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpaceFor("double-pendulum", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("SpaceFor did not cache")
	}
	if _, err := SpaceFor("no-such-system", 4, 3); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestRunComparisonStructure(t *testing.T) {
	cmp, err := RunComparison(context.Background(), testConfig("double-pendulum"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Results) != 6 {
		t.Fatalf("%d results, want 6", len(cmp.Results))
	}
	for _, s := range AllSchemes() {
		r, ok := cmp.Get(s)
		if !ok {
			t.Fatalf("missing scheme %s", s)
		}
		if r.NumSims <= 0 || r.EnsembleNNZ <= 0 {
			t.Fatalf("%s: empty budget accounting %+v", s, r)
		}
		if math.IsNaN(r.Accuracy) {
			t.Fatalf("%s: NaN accuracy", s)
		}
	}
	if _, ok := cmp.Get(Scheme("nope")); ok {
		t.Fatal("Get returned a result for an unknown scheme")
	}
}

func TestRunComparisonEqualBudgets(t *testing.T) {
	cmp, err := RunComparison(context.Background(), testConfig("double-pendulum"))
	if err != nil {
		t.Fatal(err)
	}
	m2td, _ := cmp.Get(SchemeSELECT)
	random, _ := cmp.Get(SchemeRandom)
	slice, _ := cmp.Get(SchemeSlice)
	if random.NumSims != m2td.NumSims || slice.NumSims != m2td.NumSims {
		t.Fatalf("budgets differ: m2td=%d random=%d slice=%d", m2td.NumSims, random.NumSims, slice.NumSims)
	}
	grid, _ := cmp.Get(SchemeGrid)
	if grid.NumSims > m2td.NumSims {
		t.Fatalf("grid exceeded budget: %d > %d", grid.NumSims, m2td.NumSims)
	}
}

func TestRunComparisonHeadlineShape(t *testing.T) {
	// The paper's core claim at every configuration: each M2TD variant
	// beats every conventional scheme by a wide margin.
	cmp, err := RunComparison(context.Background(), testConfig("double-pendulum"))
	if err != nil {
		t.Fatal(err)
	}
	worstM2TD := math.Inf(1)
	bestConv := math.Inf(-1)
	for _, s := range []Scheme{SchemeAVG, SchemeCONCAT, SchemeSELECT} {
		r, _ := cmp.Get(s)
		if r.Accuracy < worstM2TD {
			worstM2TD = r.Accuracy
		}
	}
	for _, s := range []Scheme{SchemeRandom, SchemeGrid, SchemeSlice} {
		r, _ := cmp.Get(s)
		if r.Accuracy > bestConv {
			bestConv = r.Accuracy
		}
	}
	if worstM2TD <= bestConv {
		t.Fatalf("M2TD (worst %v) did not beat conventional (best %v)", worstM2TD, bestConv)
	}
}

func TestRunComparisonUnknownSystem(t *testing.T) {
	cfg := testConfig("double-pendulum")
	cfg.System = "bogus"
	if _, err := RunComparison(context.Background(), cfg); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestTable3SmallRun(t *testing.T) {
	rows, err := Table3(context.Background(), testConfig("double-pendulum"), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Total() <= 0 {
			t.Fatalf("workers=%d: no recorded time", r.Workers)
		}
		// The split is the materialised entry's — a stitch phase that took
		// time — with the join-free engine total beside it.
		if r.Phase2 <= 0 || r.JoinFree <= 0 {
			t.Fatalf("workers=%d: Phase 2 %v, join-free total %v", r.Workers, r.Phase2, r.JoinFree)
		}
	}
}

func TestTable5RowsIncludeZeroJoin(t *testing.T) {
	rows, err := Table5(context.Background(), testConfig("double-pendulum"), []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want join + zero-join", len(rows))
	}
	if rows[0].ZeroJoin || !rows[1].ZeroJoin {
		t.Fatalf("row stitch flags: %v, %v", rows[0].ZeroJoin, rows[1].ZeroJoin)
	}
}

func TestTable8PivotSweepSmall(t *testing.T) {
	rows, err := Table8(context.Background(), testConfig("double-pendulum"), []int{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].PivotName != "t" || rows[1].PivotName != "phi1" {
		t.Fatalf("pivot names: %q, %q", rows[0].PivotName, rows[1].PivotName)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	cmp, err := RunComparison(context.Background(), testConfig("double-pendulum"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	RenderTable2(&b, []*Comparison{cmp})
	if !strings.Contains(b.String(), "TABLE II") || !strings.Contains(b.String(), "SELECT") {
		t.Fatalf("Table II render missing content:\n%s", b.String())
	}
	b.Reset()
	RenderTable4(&b, []*Comparison{cmp})
	if !strings.Contains(b.String(), "double-pendulum") {
		t.Fatal("Table IV render missing system name")
	}
	b.Reset()
	RenderTable3(&b, []Table3Row{{Workers: 2, Phase1: 1e6, Phase2: 2e6, Phase3: 3e6}})
	if !strings.Contains(b.String(), "Servers") {
		t.Fatal("Table III render missing header")
	}
	b.Reset()
	RenderTable5(&b, []Table5Row{{BudgetFrac: 0.1, ZeroJoin: true, Comparison: cmp}})
	if !strings.Contains(b.String(), "zero-join") {
		t.Fatal("Table V render missing stitch column")
	}
	b.Reset()
	RenderTable6(&b, []FracRow{{Frac: 0.5, Comparison: cmp}})
	RenderTable7(&b, []FracRow{{Frac: 0.5, Comparison: cmp}})
	if !strings.Contains(b.String(), "TABLE VI") || !strings.Contains(b.String(), "TABLE VII") {
		t.Fatal("Tables VI/VII renders missing titles")
	}
	b.Reset()
	RenderTable8(&b, []PivotRow{{Pivot: 4, PivotName: "t", Comparison: cmp}})
	if !strings.Contains(b.String(), "Pivot") {
		t.Fatal("Table VIII render missing header")
	}
}

func TestFmtAcc(t *testing.T) {
	if got := fmtAcc(0.57); got != "0.57" {
		t.Fatalf("fmtAcc(0.57) = %q", got)
	}
	if got := fmtAcc(2e-4); got != "2E-04" {
		t.Fatalf("fmtAcc(2e-4) = %q", got)
	}
	if got := fmtAcc(-0.02); got != "-0.02" {
		t.Fatalf("fmtAcc(-0.02) = %q", got)
	}
}

func TestRunSeedsAggregates(t *testing.T) {
	cfg := testConfig("double-pendulum")
	cfg.FreeFrac = 0.6 // introduce sampling randomness
	sweep, err := RunSeeds(context.Background(), cfg, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Comparisons) != 3 {
		t.Fatalf("%d comparisons", len(sweep.Comparisons))
	}
	for _, s := range AllSchemes() {
		sum, ok := sweep.Accuracy[s]
		if !ok {
			t.Fatalf("missing summary for %s", s)
		}
		if sum.N != 3 {
			t.Fatalf("%s: N = %d", s, sum.N)
		}
	}
	var b strings.Builder
	RenderSeedSweep(&b, sweep)
	if !strings.Contains(b.String(), "seeds") {
		t.Fatal("seed sweep render missing header")
	}
}

func TestRunSeedsRequiresSeeds(t *testing.T) {
	if _, err := RunSeeds(context.Background(), testConfig("double-pendulum"), nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestUnionBaselineIsWeak(t *testing.T) {
	// The paper's Section I-C argument: unioning the two sub-ensembles
	// into one high-order tensor leaves the density too low — M2TD's
	// join-based stitching must beat it decisively.
	cfg := testConfig("double-pendulum")
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := partition.DefaultConfig(space.Order(), cfg.Pivot, PairsFor(cfg.System))
	part, err := partition.GenerateCtx(context.Background(), space, pcfg, rand.New(rand.NewSource(cfg.Seed)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	union, err := UnionResult(part, cfg.Rank)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DecomposeCtx(context.Background(), part, core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(space.Order(), cfg.Rank)})
	if err != nil {
		t.Fatal(err)
	}
	m2tdAcc := Accuracy(res.Reconstruct(), space.GroundTruth())
	if union.Accuracy >= m2tdAcc {
		t.Fatalf("union accuracy %v >= M2TD %v", union.Accuracy, m2tdAcc)
	}
	if union.EnsembleNNZ >= res.Join.NNZ() {
		t.Fatalf("union NNZ %d >= join NNZ %d", union.EnsembleNNZ, res.Join.NNZ())
	}
}

func TestUnionTensorAveragesOverlap(t *testing.T) {
	cfg := testConfig("double-pendulum")
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := partition.DefaultConfig(space.Order(), cfg.Pivot, PairsFor(cfg.System))
	part, err := partition.GenerateCtx(context.Background(), space, pcfg, rand.New(rand.NewSource(3)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u := UnionTensor(part)
	// No duplicate coordinates may remain.
	seen := map[int]bool{}
	u.Each(func(idx []int, v float64) {
		lin := u.Shape.LinearIndex(idx)
		if seen[lin] {
			t.Fatalf("duplicate union cell at %v", idx)
		}
		seen[lin] = true
	})
	if u.NNZ() == 0 {
		t.Fatal("empty union tensor")
	}
}

func TestExportComparisonsCSV(t *testing.T) {
	cmp, err := RunComparison(context.Background(), testConfig("double-pendulum"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := ExportComparisonsCSV(&b, []*Comparison{cmp}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+6 {
		t.Fatalf("CSV has %d lines, want header + 6 scheme rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "system,res,") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.Contains(b.String(), "M2TD-SELECT") {
		t.Fatal("CSV missing scheme rows")
	}
}

func TestAddNoisePerturbs(t *testing.T) {
	sp := tensor.NewSparse(tensor.Shape{4})
	for i := 0; i < 4; i++ {
		sp.Append([]int{i}, 1)
	}
	before := append([]float64(nil), sp.Vals...)
	AddNoise(sp, 0.5, rand.New(rand.NewSource(1)))
	changed := false
	for i, v := range sp.Vals {
		if v != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("AddNoise changed nothing")
	}
	// No-ops: zero fraction, empty tensor, all-zero tensor.
	AddNoise(sp, 0, rand.New(rand.NewSource(2)))
	empty := tensor.NewSparse(tensor.Shape{2})
	AddNoise(empty, 1, rand.New(rand.NewSource(3)))
	zeros := tensor.NewSparse(tensor.Shape{2})
	zeros.Append([]int{0}, 0)
	AddNoise(zeros, 1, rand.New(rand.NewSource(4)))
	if zeros.Vals[0] != 0 {
		t.Fatal("all-zero tensor should stay zero")
	}
}

func TestNoiseSweepDegradesGracefully(t *testing.T) {
	rows, err := NoiseSweep(context.Background(), testConfig("double-pendulum"), []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	clean, _ := rows[0].Comparison.Get(SchemeSELECT)
	noisy, _ := rows[1].Comparison.Get(SchemeSELECT)
	// Noise must not improve accuracy beyond numerical jitter, and M2TD
	// must still beat conventional under noise.
	if noisy.Accuracy > clean.Accuracy+0.05 {
		t.Fatalf("noise improved accuracy: %v -> %v", clean.Accuracy, noisy.Accuracy)
	}
	noisyRandom, _ := rows[1].Comparison.Get(SchemeRandom)
	if noisy.Accuracy <= noisyRandom.Accuracy {
		t.Fatalf("M2TD under noise %v not better than Random %v", noisy.Accuracy, noisyRandom.Accuracy)
	}
	var b strings.Builder
	RenderNoiseSweep(&b, rows)
	if !strings.Contains(b.String(), "NOISE") {
		t.Fatal("noise render missing title")
	}
}

func TestTable1Summary(t *testing.T) {
	rows, err := Table1(context.Background(), []string{"double-pendulum"}, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.FullSpaceCells != 5*5*5*5*5 {
		t.Fatalf("full cells = %d", r.FullSpaceCells)
	}
	if r.Budget != 2*25 {
		t.Fatalf("budget = %d, want 50", r.Budget)
	}
	if r.Density <= 0 || r.Density > 1 {
		t.Fatalf("density = %v", r.Density)
	}
	var b strings.Builder
	RenderTable1(&b, rows)
	if !strings.Contains(b.String(), "TABLE I") {
		t.Fatal("Table I render missing title")
	}
}

func TestFig6DensityBoost(t *testing.T) {
	rows, err := Fig6(context.Background(), testConfig("double-pendulum"), []float64{1.0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The core claim: stitching boosts effective density well beyond
		// raw sampling, and zero-join is at least as dense as join.
		if r.JoinBoostFactor <= 1 {
			t.Fatalf("E=%v: join boost %v <= 1", r.FreeFrac, r.JoinBoostFactor)
		}
		if r.ZeroJoinDensity < r.JoinDensity {
			t.Fatalf("E=%v: zero-join density below join", r.FreeFrac)
		}
		if r.UnionDensity > r.RawDensity*1.01 {
			t.Fatalf("E=%v: union density %v unexpectedly above raw %v", r.FreeFrac, r.UnionDensity, r.RawDensity)
		}
	}
	// The boost factor grows as E drops for zero-join relative to join.
	if rows[1].ZeroBoostFactor <= rows[1].JoinBoostFactor {
		t.Fatal("zero-join boost should exceed join boost at reduced E")
	}
	var b strings.Builder
	RenderFig6(&b, rows)
	if !strings.Contains(b.String(), "FIGURE 6") {
		t.Fatal("Fig6 render missing title")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int]string{
		100:     "100B",
		2048:    "2.0KB",
		3 << 20: "3.0MB",
		5 << 30: "5.0GB",
	}
	for n, want := range cases {
		if got := fmtBytes(n); got != want {
			t.Fatalf("fmtBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestTimeFiberMatchesFullReconstruction(t *testing.T) {
	cfg := testConfig("double-pendulum")
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := partition.DefaultConfig(space.Order(), cfg.Pivot, PairsFor(cfg.System))
	part, err := partition.GenerateCtx(context.Background(), space, pcfg, rand.New(rand.NewSource(9)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DecomposeCtx(context.Background(), part, core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(space.Order(), cfg.Rank)})
	if err != nil {
		t.Fatal(err)
	}
	model := TuckerModel{Core: res.Core, Factors: res.Factors}
	full := res.Reconstruct()
	idx := []int{1, 2, 3, 0}
	fiber := model.TimeFiber(idx, space.TimeSamples)
	for tt := 0; tt < space.TimeSamples; tt++ {
		want := full.At(1, 2, 3, 0, tt)
		if math.Abs(fiber[tt]-want) > 1e-9 {
			t.Fatalf("fiber[%d] = %v, full reconstruction %v", tt, fiber[tt], want)
		}
	}
}

func TestEstimateAccuracyConsistentWithExact(t *testing.T) {
	cfg := testConfig("double-pendulum")
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := partition.DefaultConfig(space.Order(), cfg.Pivot, PairsFor(cfg.System))
	part, err := partition.GenerateCtx(context.Background(), space, pcfg, rand.New(rand.NewSource(10)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DecomposeCtx(context.Background(), part, core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(space.Order(), cfg.Rank)})
	if err != nil {
		t.Fatal(err)
	}
	model := TuckerModel{Core: res.Core, Factors: res.Factors}
	exact := Accuracy(res.Reconstruct(), space.GroundTruth())

	// Sampling every simulation must reproduce the exact metric.
	all, err := EstimateAccuracy(space, model, space.TotalSims(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(all-exact) > 1e-9 {
		t.Fatalf("full-sample estimate %v != exact %v", all, exact)
	}
	// A partial sample lands near the exact value.
	est, err := EstimateAccuracy(space, model, space.TotalSims()/2, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-exact) > 0.15 {
		t.Fatalf("half-sample estimate %v far from exact %v", est, exact)
	}
}

func TestEstimateAccuracyValidation(t *testing.T) {
	cfg := testConfig("double-pendulum")
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateAccuracy(space, TuckerModel{}, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero sample count accepted")
	}
	if _, err := EstimateAccuracy(space, TuckerModel{}, 5, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("empty model accepted")
	}
}

func TestRunComparisonEstimatedMatchesExactAtFullSampling(t *testing.T) {
	cfg := testConfig("double-pendulum")
	exact, err := RunComparison(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	space, _ := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	cfg.EstimateSims = space.TotalSims()
	est, err := RunComparison(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range AllSchemes() {
		e, _ := exact.Get(s)
		g, _ := est.Get(s)
		if math.Abs(e.Accuracy-g.Accuracy) > 1e-9 {
			t.Fatalf("%s: estimated %v != exact %v at full sampling", s, g.Accuracy, e.Accuracy)
		}
	}
}

func TestRunComparisonEstimatedHeadlineShape(t *testing.T) {
	cfg := testConfig("double-pendulum")
	cfg.EstimateSims = 100
	cmp, err := RunComparison(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := cmp.Get(SchemeSELECT)
	rnd, _ := cmp.Get(SchemeRandom)
	if sel.Accuracy <= rnd.Accuracy {
		t.Fatalf("estimated SELECT %v not above Random %v", sel.Accuracy, rnd.Accuracy)
	}
}

func TestSampleFibersDistinct(t *testing.T) {
	space, _ := SpaceFor("double-pendulum", 5, 4)
	fibers := sampleFibers(space, 30, rand.New(rand.NewSource(1)))
	if len(fibers) != 30 {
		t.Fatalf("%d fibers", len(fibers))
	}
	seen := map[int]bool{}
	for _, f := range fibers {
		if len(f.Truth) != space.TimeSamples {
			t.Fatalf("fiber truth length %d", len(f.Truth))
		}
		key := 0
		for _, i := range f.ParamIdx {
			key = key*space.Res + i
		}
		if seen[key] {
			t.Fatal("duplicate fiber")
		}
		seen[key] = true
	}
	// Oversampling clamps to the space.
	all := sampleFibers(space, 1<<20, rand.New(rand.NewSource(2)))
	if len(all) != space.TotalSims() {
		t.Fatalf("clamped to %d fibers, want %d", len(all), space.TotalSims())
	}
}

func TestTables2467SmallRuns(t *testing.T) {
	base := testConfig("double-pendulum")
	cmps, err := Table2(context.Background(), base, []int{5}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != 1 || cmps[0].Config.Res != 5 {
		t.Fatalf("Table2 rows: %d", len(cmps))
	}
	t4, err := Table4(context.Background(), base, []string{"lorenz"})
	if err != nil {
		t.Fatal(err)
	}
	if len(t4) != 1 || t4[0].Config.System != "lorenz" {
		t.Fatalf("Table4 rows: %+v", t4)
	}
	t6, err := Table6(context.Background(), base, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(t6) != 1 || t6[0].Frac != 0.5 {
		t.Fatalf("Table6 rows: %+v", t6)
	}
	t7, err := Table7(context.Background(), base, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(t7) != 1 {
		t.Fatalf("Table7 rows: %d", len(t7))
	}
	// Error propagation from an unknown system.
	bad := base
	bad.System = "bogus"
	if _, err := Table4(context.Background(), bad, []string{"bogus"}); err == nil {
		t.Fatal("Table4 with bogus system accepted")
	}
}

func TestPairsFor(t *testing.T) {
	if PairsFor("double-pendulum") == nil {
		t.Fatal("double pendulum should have pairs")
	}
	if PairsFor("lorenz") != nil {
		t.Fatal("lorenz should have no pairs")
	}
}

func TestFiberStatsConsistentWithEstimate(t *testing.T) {
	cfg := testConfig("double-pendulum")
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := partition.DefaultConfig(space.Order(), cfg.Pivot, PairsFor(cfg.System))
	part, err := partition.GenerateCtx(context.Background(), space, pcfg, rand.New(rand.NewSource(25)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DecomposeCtx(context.Background(), part, core.Options{Method: core.AVG, Ranks: tucker.UniformRanks(space.Order(), cfg.Rank)})
	if err != nil {
		t.Fatal(err)
	}
	model := TuckerModel{Core: res.Core, Factors: res.Factors}
	fibers := sampleFibers(space, 50, rand.New(rand.NewSource(26)))
	errSq, refSq, err := FiberStats(model, fibers)
	if err != nil {
		t.Fatal(err)
	}
	var e, r float64
	for i := range errSq {
		e += errSq[i]
		r += refSq[i]
	}
	want, err := EstimateFromFibers(model, fibers)
	if err != nil {
		t.Fatal(err)
	}
	got := 1 - math.Sqrt(e/r)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("FiberStats-derived accuracy %v != EstimateFromFibers %v", got, want)
	}
}

// TestFiberEvaluationBitStableAcrossPoolSizes: the fiber fan-outs run on
// the shared pool; per-fiber partials are summed in fiber order, so the
// sampled fibers, their statistics and the estimate are the same bits at
// every pool size.
func TestFiberEvaluationBitStableAcrossPoolSizes(t *testing.T) {
	cfg := testConfig("double-pendulum")
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := partition.DefaultConfig(space.Order(), cfg.Pivot, PairsFor(cfg.System))
	part, err := partition.GenerateCtx(context.Background(), space, pcfg, rand.New(rand.NewSource(27)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DecomposeCtx(context.Background(), part, core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(space.Order(), cfg.Rank)})
	if err != nil {
		t.Fatal(err)
	}
	model := TuckerModel{Core: res.Core, Factors: res.Factors}

	sameBits := func(label string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: value %d is %v, want %v", label, i, got[i], want[i])
			}
		}
	}
	var wantFibers []Fiber
	var wantErrSq, wantRefSq []float64
	var wantAcc float64
	for _, pool := range []int{1, 2, 8} {
		prevCap := parallel.SetFanoutCap(pool)
		parallel.SetDefaultWorkers(pool)
		fibers := sampleFibers(space, 37, rand.New(rand.NewSource(28)))
		errSq, refSq, err1 := FiberStats(model, fibers)
		acc, err2 := EstimateFromFibers(model, fibers)
		parallel.SetDefaultWorkers(0)
		parallel.SetFanoutCap(prevCap)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if wantFibers == nil {
			wantFibers, wantErrSq, wantRefSq, wantAcc = fibers, errSq, refSq, acc
			for i, f := range fibers {
				cells, err := space.SimCellsCtx(context.Background(), f.ParamIdx)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(fmt.Sprintf("fiber %d vs SimCells", i), f.Truth, cells)
			}
			continue
		}
		for i := range wantFibers {
			sameBits(fmt.Sprintf("pool %d fiber %d", pool, i), fibers[i].Truth, wantFibers[i].Truth)
		}
		sameBits(fmt.Sprintf("pool %d errSq", pool), errSq, wantErrSq)
		sameBits(fmt.Sprintf("pool %d refSq", pool), refSq, wantRefSq)
		if math.Float64bits(acc) != math.Float64bits(wantAcc) {
			t.Fatalf("pool %d: estimate %v, want %v", pool, acc, wantAcc)
		}
	}
}

func TestRankSweep(t *testing.T) {
	rows, err := RankSweep(context.Background(), testConfig("double-pendulum"), []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Rank != 2 || rows[1].Rank != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	var b strings.Builder
	RenderRankSweep(&b, rows)
	if !strings.Contains(b.String(), "RANK SWEEP") || !strings.Contains(b.String(), "margin") {
		t.Fatal("rank sweep render missing content")
	}
}

func TestExtendedComparison(t *testing.T) {
	cmp, err := ExtendedComparison(context.Background(), testConfig("double-pendulum"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Results) != 8 {
		t.Fatalf("%d results, want 8", len(cmp.Results))
	}
	lhs, ok := cmp.Get(SchemeLHS)
	if !ok {
		t.Fatal("missing LHS row")
	}
	union, ok := cmp.Get(SchemeUnion)
	if !ok {
		t.Fatal("missing Union row")
	}
	sel, _ := cmp.Get(SchemeSELECT)
	if lhs.Accuracy >= sel.Accuracy {
		t.Fatalf("LHS %v >= SELECT %v", lhs.Accuracy, sel.Accuracy)
	}
	if union.Accuracy >= sel.Accuracy {
		t.Fatalf("Union %v >= SELECT %v", union.Accuracy, sel.Accuracy)
	}
	if lhs.NumSims > sel.NumSims {
		t.Fatal("LHS exceeded the shared budget")
	}
	var b strings.Builder
	RenderExtended(&b, []*Comparison{cmp})
	if !strings.Contains(b.String(), "LHS") || !strings.Contains(b.String(), "Union") {
		t.Fatal("extended render missing columns")
	}
}

func TestSelectPivotRanksCandidates(t *testing.T) {
	scores, err := SelectPivot(context.Background(), "double-pendulum", 5, 2, 100, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 5 {
		t.Fatalf("%d scores, want 5", len(scores))
	}
	for i := 1; i < len(scores); i++ {
		if scores[i].Accuracy > scores[i-1].Accuracy+1e-12 {
			t.Fatal("scores not sorted best-first")
		}
	}
	names := map[string]bool{}
	for _, s := range scores {
		if s.NumSims <= 0 {
			t.Fatalf("pivot %s: no simulations recorded", s.PivotName)
		}
		names[s.PivotName] = true
	}
	for _, want := range []string{"phi1", "phi2", "m1", "m2", "t"} {
		if !names[want] {
			t.Fatalf("missing pivot %s", want)
		}
	}
	if _, err := SelectPivot(context.Background(), "double-pendulum", 1, 2, 10, 1); err == nil {
		t.Fatal("tiny pilot resolution accepted")
	}
	if _, err := SelectPivot(context.Background(), "bogus", 5, 2, 10, 1); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestSelectPivotDeterministic(t *testing.T) {
	a, err := SelectPivot(context.Background(), "lorenz", 5, 2, 60, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectPivot(context.Background(), "lorenz", 5, 2, 60, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Pivot != b[i].Pivot || a[i].Accuracy != b[i].Accuracy {
			t.Fatal("pivot selection not deterministic")
		}
	}
}

// TestSharedEnsembleRowsMatchIndependentRows: the sweeps that simulate one
// ensemble and decompose it per row (Table II's rank rows, Table V's join /
// zero-join pair, the rank and noise sweeps) score every scheme to the bit
// as a RunComparison that simulated for that row alone — including the
// noise rows, which perturb a copy and must leave the shared ensemble clean
// for the rows after them.
func TestSharedEnsembleRowsMatchIndependentRows(t *testing.T) {
	base := testConfig("double-pendulum")
	var shared []*Comparison
	t2, err := Table2(context.Background(), base, []int{5, 6}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	shared = append(shared, t2...)
	t5, err := Table5(context.Background(), base, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t5 {
		shared = append(shared, row.Comparison)
	}
	ranks, err := RankSweep(context.Background(), base, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range ranks {
		shared = append(shared, row.Comparison)
	}
	noise, err := NoiseSweep(context.Background(), base, []float64{0.2, 0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range noise {
		shared = append(shared, row.Comparison)
	}
	for _, got := range shared {
		want, err := RunComparison(context.Background(), got.Config)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got.Results {
			w := want.Results[i]
			if r.Scheme != w.Scheme || math.Float64bits(r.Accuracy) != math.Float64bits(w.Accuracy) ||
				r.NumSims != w.NumSims || r.EnsembleNNZ != w.EnsembleNNZ {
				t.Fatalf("%+v: shared-ensemble row %+v, independent row %+v", got.Config, r, w)
			}
		}
	}
}
