package eval

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
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
	for _, s := range paperSchemes {
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

// m2tdSchemes and conventionalSchemes split the paper's six columns.
var (
	m2tdSchemes         = []Scheme{SchemeAVG, SchemeCONCAT, SchemeSELECT}
	conventionalSchemes = []Scheme{SchemeRandom, SchemeGrid, SchemeSlice}
)

// accuracies returns the row's accuracies for the given schemes.
func accuracies(t *testing.T, cmp *Comparison, schemes []Scheme) []float64 {
	t.Helper()
	out := make([]float64, len(schemes))
	for i, s := range schemes {
		r, ok := cmp.Get(s)
		if !ok {
			t.Fatalf("%+v: no %s result", cmp.Config, s)
		}
		out[i] = r.Accuracy
	}
	return out
}

// TestRunComparisonHeadlineShape holds EXPERIMENTS.md's ✅ shape claims as
// assertions over the rows of the golden run (every registered experiment
// at res 6, T 6 — the rows TestAccuracyGolden pins).
//
// Claims EXPERIMENTS.md marks ✅ that do not hold at res 6 and are therefore
// not asserted here, with the resolution at which they were measured:
//   - SELECT best among the M2TD variants, its margin growing with rank:
//     res 16 (margin −0.012 → +0.038 over ranks 2 → 8; at res 6 it is
//     negative at every rank).
//   - Random worst among the conventional schemes (Random ≤ Slice ≤ Grid):
//     res 16 (at res 6 the 72-simulation Random sample beats Grid).
//   - M2TD above conventional on every row of Table VII: res 16 (at res 6,
//     E = 25 % leaves SELECT level with Grid at 0.02).
//   - Noise leaves M2TD accuracies essentially unchanged up to σ = 50 %:
//     res 16 (SELECT 0.20 → 0.17; at res 6 it falls 0.31 → 0.20).
func TestRunComparisonHeadlineShape(t *testing.T) {
	rows := goldenRows(t)
	byTable := map[string][]Row{}
	for _, row := range rows {
		byTable[row.Table] = append(byTable[row.Table], row)
	}

	// The paper's core claim: at full densities every M2TD variant beats
	// every conventional scheme — at every resolution and rank, on every
	// system, for every pivot, under noise — and the two extra baselines.
	for _, row := range rows {
		if row.Config.PivotFrac < 1 || row.Config.FreeFrac < 1 {
			continue
		}
		worst := slices.Min(accuracies(t, row.Comparison, m2tdSchemes))
		others := conventionalSchemes
		if row.Table == "extended" {
			others = append(slices.Clone(others), SchemeLHS, SchemeUnion)
		}
		if best := slices.Max(accuracies(t, row.Comparison, others)); worst <= best {
			t.Errorf("table %s row %v: worst M2TD %v does not beat best of %v, %v", row.Table, row.Labels, worst, others, best)
		}
	}

	// Table V: at the reduced budget zero-join is at least as accurate as
	// join, for every M2TD variant.
	v := byTable["5"]
	join, zero := accuracies(t, v[1].Comparison, m2tdSchemes), accuracies(t, v[2].Comparison, m2tdSchemes)
	for i, s := range m2tdSchemes {
		if zero[i] < join[i] {
			t.Errorf("table 5, %s at %v budget: zero-join %v below join %v", s, v[2].Labels[0], zero[i], join[i])
		}
	}

	// Tables VI and VII: accuracy does not rise as a density falls, and
	// cutting E to 25 % costs more than cutting P to 25 % (effective
	// density ∝ P·E²).
	for _, table := range []string{"6", "7"} {
		sweep := byTable[table]
		for i := 1; i < len(sweep); i++ {
			prev, cur := accuracies(t, sweep[i-1].Comparison, m2tdSchemes), accuracies(t, sweep[i].Comparison, m2tdSchemes)
			for j, s := range m2tdSchemes {
				if cur[j] > prev[j] {
					t.Errorf("table %s, %s: accuracy rises %v → %v from density %s to %s", table, s, prev[j], cur[j], sweep[i-1].Labels[0], sweep[i].Labels[0])
				}
			}
		}
	}
	p25 := accuracies(t, byTable["6"][2].Comparison, m2tdSchemes)
	e25 := accuracies(t, byTable["7"][2].Comparison, m2tdSchemes)
	for i, s := range m2tdSchemes {
		if e25[i] >= p25[i] {
			t.Errorf("%s: E = 25%% scores %v, not below P = 25%% at %v", s, e25[i], p25[i])
		}
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

// experiment returns the registered comparison experiment of that name at
// the given base and sweeps.
func experiment(t *testing.T, name string, base Config, resolutions, ranks []int) Experiment {
	t.Helper()
	for _, e := range Experiments(base, resolutions, ranks) {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no comparison experiment %q", name)
	return Experiment{}
}

func TestTable5RowsIncludeZeroJoin(t *testing.T) {
	e := experiment(t, "5", testConfig("double-pendulum"), nil, nil)
	e.Cells = e.Cells[1:] // the reduced budget
	rows, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want join + zero-join", len(rows))
	}
	if rows[0].Config.ZeroJoin || !rows[1].Config.ZeroJoin || rows[0].Labels[1] != "join" || rows[1].Labels[1] != "zero-join" {
		t.Fatalf("row stitch flags: %v %v, %v %v", rows[0].Labels, rows[0].Config.ZeroJoin, rows[1].Labels, rows[1].Config.ZeroJoin)
	}
	if rows[0].Config.FreeFrac >= 1 || rows[0].Config.FreeFrac != rows[1].Config.FreeFrac {
		t.Fatalf("budgets of the pair: %v, %v", rows[0].Config.FreeFrac, rows[1].Config.FreeFrac)
	}
}

func TestTable8PivotSweepSmall(t *testing.T) {
	e := experiment(t, "8", testConfig("double-pendulum"), nil, nil)
	if len(e.Cells) != 5 {
		t.Fatalf("%d pivots, want all five modes", len(e.Cells))
	}
	e.Cells = e.Cells[:2]
	rows, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Labels[0] != "t" || rows[1].Labels[0] != "phi1" || rows[0].Config.Pivot != 4 || rows[1].Config.Pivot != 0 {
		t.Fatalf("pivots: %v (mode %d), %v (mode %d)", rows[0].Labels, rows[0].Config.Pivot, rows[1].Labels, rows[1].Config.Pivot)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	cmp, err := RunComparison(context.Background(), testConfig("double-pendulum"))
	if err != nil {
		t.Fatal(err)
	}
	// One evaluated comparison stands in for every cell: the renderer
	// prints labels and results, whatever produced them.
	render := func(name string) string {
		e := experiment(t, name, testConfig("double-pendulum"), nil, nil)
		var rows []Row
		for _, c := range e.Cells {
			rows = append(rows, Row{Table: e.Name, Labels: c.Labels, Comparison: cmp})
		}
		var b strings.Builder
		e.Render(&b, rows)
		return b.String()
	}
	for name, want := range map[string][]string{
		"2":        {"TABLE II(a)", "TABLE II(b)", "Res.", "SELECT"},
		"4":        {"TABLE IV(a)", "TABLE IV(b)", "System", "triple-pendulum"},
		"5":        {"TABLE V:", "Stitch", "zero-join"},
		"6":        {"TABLE VI:", "50%"},
		"7":        {"TABLE VII:", "25%"},
		"8":        {"TABLE VIII(a)", "TABLE VIII(b)", "Pivot", "phi2"},
		"noise":    {"NOISE SWEEP", "Noise"},
		"ranks":    {"RANK SWEEP", "SELECT margin"},
		"extended": {"EXTENDED BASELINES"},
	} {
		got := render(name)
		for _, w := range want {
			if !strings.Contains(got, w) {
				t.Errorf("table %s render is missing %q:\n%s", name, w, got)
			}
		}
		// The scheme columns are the ones the rows carry: here six, for
		// the extended table too.
		header := strings.Fields(strings.Split(got, "\n")[1])
		if six := "AVG CONCAT SELECT Random Grid Slice"; !strings.Contains(strings.Join(header, " "), six) || slices.Contains(header, "LHS") {
			t.Errorf("table %s render: scheme columns %v are not the six of its rows", name, header)
		}
		if name == "5" && strings.Contains(got, "(ms)") {
			t.Errorf("table 5 has no time half:\n%s", got)
		}
	}
	var b strings.Builder
	RenderTable3(&b, []Table3Row{{Workers: 2, Phase1: 1e6, Phase2: 2e6, Phase3: 3e6}})
	if !strings.Contains(b.String(), "Servers") {
		t.Fatal("Table III render missing header")
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

// paperSchemes are the schemes in the paper's column order.
var paperSchemes = []Scheme{SchemeAVG, SchemeCONCAT, SchemeSELECT, SchemeRandom, SchemeGrid, SchemeSlice}

func TestRunSeedsAggregates(t *testing.T) {
	cfg := testConfig("double-pendulum")
	cfg.FreeFrac = 0.6 // introduce sampling randomness
	sweep := SeedSweep(cfg, []int64{1, 2, 3})
	rows, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[2].Config.Seed != 3 {
		t.Fatalf("%d comparisons", len(rows))
	}
	schemes, sums := summarize(rows)
	if !slices.Equal(schemes, paperSchemes) {
		t.Fatalf("summarised schemes %v", schemes)
	}
	for _, s := range paperSchemes {
		if sums[s].N != 3 {
			t.Fatalf("%s: N = %d", s, sums[s].N)
		}
	}
	var b strings.Builder
	sweep.Render(&b, rows)
	if !strings.Contains(b.String(), "across 3 seeds") || !strings.Contains(b.String(), "Std") {
		t.Fatalf("seed sweep render missing its summary:\n%s", b.String())
	}
}

func TestRunSeedsRequiresSeeds(t *testing.T) {
	if _, err := SeedSweep(testConfig("double-pendulum"), nil).Run(context.Background()); err == nil {
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
	score, err := Scorer(context.Background(), space, 0, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	union, err := UnionResult(part, cfg.Rank, score)
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
	rows := []Row{{Table: "2", Labels: []string{"6", "2"}, Comparison: cmp}, {Table: "5", Labels: []string{"10%", "zero-join"}, Comparison: cmp}}
	if err := ExportCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+2*6 {
		t.Fatalf("CSV has %d lines, want one header + 6 scheme rows per table row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "table,row,system,res,") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "2,6/2,double-pendulum,6,") || !strings.HasPrefix(lines[7], "5,10%/zero-join,") {
		t.Fatalf("CSV rows do not lead with table and labels: %q, %q", lines[1], lines[7])
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
	e := experiment(t, "noise", testConfig("double-pendulum"), nil, nil)
	if len(e.Cells) != 4 || e.Cells[0].Config.NoiseFrac != 0 || e.Cells[3].Config.NoiseFrac != 0.5 {
		t.Fatalf("noise levels: %+v", e.Cells)
	}
	noisyCell := e.Cells[0]
	noisyCell.Config.NoiseFrac = 0.3
	e.Cells = []Cell{e.Cells[0], noisyCell}
	rows, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	clean, _ := rows[0].Get(SchemeSELECT)
	noisy, _ := rows[1].Get(SchemeSELECT)
	// Noise must not improve accuracy beyond numerical jitter, and M2TD
	// must still beat conventional under noise.
	if noisy.Accuracy > clean.Accuracy+0.05 {
		t.Fatalf("noise improved accuracy: %v -> %v", clean.Accuracy, noisy.Accuracy)
	}
	noisyRandom, _ := rows[1].Get(SchemeRandom)
	if noisy.Accuracy <= noisyRandom.Accuracy {
		t.Fatalf("M2TD under noise %v not better than Random %v", noisy.Accuracy, noisyRandom.Accuracy)
	}
	var b strings.Builder
	e.Render(&b, rows)
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
	fiber := model.TimeFiber(model.GridRows(idx))
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
	for _, s := range paperSchemes {
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
	run := func(e Experiment) []Row {
		t.Helper()
		rows, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	t2 := run(experiment(t, "2", base, []int{5}, []int{2}))
	if len(t2) != 1 || t2[0].Config.Res != 5 || t2[0].Config.TimeSamples != 5 || t2[0].Config.Rank != 2 {
		t.Fatalf("Table2 rows: %d", len(t2))
	}
	four := experiment(t, "4", base, nil, nil)
	if len(four.Cells) != 2 {
		t.Fatalf("Table4 cells: %+v", four.Cells)
	}
	four.Cells = four.Cells[1:]
	t4 := run(four)
	if len(t4) != 1 || t4[0].Config.System != "lorenz" || t4[0].Labels[0] != "lorenz" {
		t.Fatalf("Table4 rows: %+v", t4)
	}
	six := experiment(t, "6", base, nil, nil)
	six.Cells = six.Cells[1:2]
	t6 := run(six)
	if len(t6) != 1 || t6[0].Config.PivotFrac != 0.5 || t6[0].Labels[0] != "50%" {
		t.Fatalf("Table6 rows: %+v", t6)
	}
	seven := experiment(t, "7", base, nil, nil)
	seven.Cells = seven.Cells[1:2]
	t7 := run(seven)
	if len(t7) != 1 || t7[0].Config.FreeFrac != 0.5 {
		t.Fatalf("Table7 rows: %d", len(t7))
	}
	// Error propagation from an unknown system.
	four.Cells[0].Config.System = "bogus"
	if _, err := four.Run(context.Background()); err == nil {
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
	e := experiment(t, "ranks", testConfig("double-pendulum"), nil, []int{2, 3})
	rows, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Config.Rank != 2 || rows[1].Config.Rank != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	var b strings.Builder
	e.Render(&b, rows)
	if !strings.Contains(b.String(), "RANK SWEEP") || !strings.Contains(b.String(), "margin") {
		t.Fatal("rank sweep render missing content")
	}
}

func TestExtendedComparison(t *testing.T) {
	e := experiment(t, "extended", testConfig("double-pendulum"), nil, nil)
	rows, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cmp := rows[0].Comparison
	if len(rows) != 1 || len(cmp.Results) != 8 {
		t.Fatalf("%d rows of %d results, want 1 of 8", len(rows), len(cmp.Results))
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
	e.Render(&b, rows)
	if !strings.Contains(b.String(), "LHS") || !strings.Contains(b.String(), "Union") {
		t.Fatal("extended render missing columns")
	}
}

// TestEstimateSimsScoresEveryColumn: under EstimateSims every column of a
// row — Union included, which used to build the ground truth and print the
// exact metric beside seven estimates — is the estimate on the cell's one
// fibre sample.
func TestEstimateSimsScoresEveryColumn(t *testing.T) {
	cfg := testConfig("double-pendulum")
	cfg.EstimateSims = 40
	e := experiment(t, "extended", cfg, nil, nil)
	rows, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	part, err := cfg.ensemble(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	space := part.Space
	fibers := sampleFibers(space, cfg.EstimateSims, rand.New(rand.NewSource(cfg.Seed+100)))
	ranks := tucker.UniformRanks(space.Order(), cfg.Rank)

	dec := tucker.HOSVD(UnionTensor(part), ranks)
	want, err := EstimateFromFibers(TuckerModel{Core: dec.Core, Factors: dec.Factors}, fibers)
	if err != nil {
		t.Fatal(err)
	}
	union, _ := rows[0].Get(SchemeUnion)
	if math.Float64bits(union.Accuracy) != math.Float64bits(want) {
		t.Errorf("Union scored %v, the estimate on the shared fibres is %v", union.Accuracy, want)
	}
	if exact := Accuracy(dec.Reconstruct(), space.GroundTruth()); union.Accuracy == exact {
		t.Errorf("Union scored the exact metric %v under EstimateSims", exact)
	}
	res, err := core.DecomposeFactored(part, core.Options{Method: core.SELECT, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	want, err = EstimateFromFibers(TuckerModel{Core: res.Core, Factors: res.Factors}, fibers)
	if err != nil {
		t.Fatal(err)
	}
	if sel, _ := rows[0].Get(SchemeSELECT); math.Float64bits(sel.Accuracy) != math.Float64bits(want) {
		t.Errorf("SELECT scored %v, the estimate on the shared fibres is %v", sel.Accuracy, want)
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

var update = flag.Bool("update", false, "rewrite testdata/accuracy_golden.csv from this run's rows")

const goldenPath = "testdata/accuracy_golden.csv"

var golden struct {
	once sync.Once
	rows []Row
	err  error
}

// goldenRows runs every registered comparison experiment once per test
// binary at the golden scale — DefaultConfig at res 6, T 6, what
// `m2tdbench -table … -res 6` runs — and returns all rows in registry order.
func goldenRows(t *testing.T) []Row {
	t.Helper()
	golden.once.Do(func() {
		base := DefaultConfig("double-pendulum")
		base.Res, base.TimeSamples = 6, 6
		for _, e := range Experiments(base, []int{6}, nil) {
			rows, err := e.Run(context.Background())
			if err != nil {
				golden.err = err
				return
			}
			golden.rows = append(golden.rows, rows...)
		}
	})
	if golden.err != nil {
		t.Fatal(golden.err)
	}
	return golden.rows
}

// TestAccuracyGolden pins every accuracy of every comparison table, as the
// one exporter writes it, to the checked-in golden: table, labels, Config,
// scheme, simulation budget and stored cells exactly, accuracy to 1e-9
// (decomp_ms is wall-clock and is not compared). After a change that is
// meant to move an accuracy, regenerate with
//
//	go test ./internal/eval -run TestAccuracyGolden -update
func TestAccuracyGolden(t *testing.T) {
	rows := goldenRows(t)
	var b bytes.Buffer
	if err := ExportCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	got, err := csv.NewReader(&b).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, name := range got[0] {
		col[name] = i
	}
	if *update {
		// Times are not part of the golden: zero them so a regeneration
		// diffs only where an accuracy moved.
		for _, rec := range got[1:] {
			rec[col["decomp_ms"]] = "0"
		}
		var out bytes.Buffer
		w := csv.NewWriter(&out)
		if err := w.WriteAll(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got)-1, goldenPath)
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d CSV lines, golden has %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			switch {
			case i > 0 && j == col["decomp_ms"]:
			case i > 0 && j == col["accuracy"]:
				g, gerr := strconv.ParseFloat(got[i][j], 64)
				w, werr := strconv.ParseFloat(want[i][j], 64)
				if gerr != nil || werr != nil || math.Abs(g-w) > 1e-9 {
					t.Errorf("line %d (%s): accuracy %s, golden %s", i+1, strings.Join(got[i][:2], " "), got[i][j], want[i][j])
				}
			case got[i][j] != want[i][j]:
				t.Errorf("line %d (%s): %s = %s, golden %s", i+1, strings.Join(got[i][:2], " "), got[0][j], got[i][j], want[i][j])
			}
		}
	}
}

// TestSharedEnsembleRowsMatchIndependentRows: the one runner shares a
// simulated partition between cells of equal simulation identity (Table II's
// rank rows, Table V's join / zero-join pair, the rank and noise sweeps, the
// default cell five tables start from). Every row of every registered
// experiment scores every scheme to the bit as a RunComparison that
// simulated for that row alone — including the noise rows, which perturb a
// copy and must leave the shared partition clean for the rows after them.
func TestSharedEnsembleRowsMatchIndependentRows(t *testing.T) {
	for _, got := range goldenRows(t) {
		want, err := RunComparison(context.Background(), got.Config)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Results) < len(want.Results) {
			t.Fatalf("table %s row %v: %d results", got.Table, got.Labels, len(got.Results))
		}
		for i, w := range want.Results {
			r := got.Results[i]
			if r.Scheme != w.Scheme || math.Float64bits(r.Accuracy) != math.Float64bits(w.Accuracy) ||
				r.NumSims != w.NumSims || r.EnsembleNNZ != w.EnsembleNNZ {
				t.Fatalf("table %s row %v: shared-partition result %+v, independent result %+v", got.Table, got.Labels, r, w)
			}
		}
	}
}

// TestEnsembleSharedAcrossUnsampledSeeds: the partition cache is keyed by
// SimKey, which names the seed only when the partition draws from its rng.
// At P = E = 1 two cells that differ only in seed get one shared partition;
// at P = 0.5 each seed samples its own.
func TestEnsembleSharedAcrossUnsampledSeeds(t *testing.T) {
	for _, tc := range []struct {
		p      float64
		shared bool
	}{{1, true}, {0.5, false}} {
		cell := Config{System: "lorenz", Res: 5, TimeSamples: 4, Rank: 2, Pivot: 3, PivotFrac: tc.p, FreeFrac: 1, Seed: 101}
		first, err := cell.ensemble(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cell.Seed++
		second, err := cell.ensemble(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if (first == second) != tc.shared {
			t.Fatalf("P = %g: seeds share a partition = %t, want %t", tc.p, first == second, tc.shared)
		}
	}
}
