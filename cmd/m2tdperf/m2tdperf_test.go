package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/api"
	"repro/internal/mat"
	"repro/internal/tensor"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 30}, {0.90, 50}, {0.20, 10}, {0.21, 20}, {1, 50}, {0.001, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// 100 samples 1..100: p90 is the 90th, leaving ten beyond it.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: the exclusive
	// method extrapolates on two points.
	q1, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{7})
	if q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v, %v, want 7, 7", q1, q3)
	}
	if got, want := spread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
}

func TestBestUnitThroughput(t *testing.T) {
	// Four units of 64 campaigns; contention slowed three of them. The
	// best unit is the one the machine left alone.
	units := []unitStats{
		{latencies: make([]float64, 64), seconds: 2},
		{latencies: make([]float64, 64), seconds: 1},
		{latencies: make([]float64, 64), seconds: 4},
		{latencies: make([]float64, 64), seconds: 1.6},
	}
	var rates []float64
	for _, u := range units {
		rates = append(rates, u.rate())
	}
	if got := best(rates); got != 64 {
		t.Errorf("best unit throughput = %v, want 64", got)
	}
	if rates[0] != 32 || rates[2] != 16 {
		t.Errorf("unit rates = %v", rates)
	}
	if got := best(nil); got != 0 {
		t.Errorf("best of no units = %v, want 0", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		// Two children overlap on [30, 40): covered [10, 60) once.
		{ID: 2, Name: "a", Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Name: "b", Parent: 1, StartNS: 30, EndNS: 60},
		// A child nested inside b's interval adds nothing.
		{ID: 4, Name: "c", Parent: 1, StartNS: 35, EndNS: 50},
		// A child reaching past the parent counts only inside it.
		{ID: 5, Name: "d", Parent: 1, StartNS: 90, EndNS: 130},
		// A grandchild is its parent's business, not the root's.
		{ID: 6, Name: "a1", Parent: 2, StartNS: 10, EndNS: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 15, 3: 30, 4: 15, 5: 40, 6: 15}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestRecorderSpansNestAndNilRecorderTimes(t *testing.T) {
	rec := newRecorder("w")
	root, endRoot := rec.start(1, "root", 0)
	rec.time(1, "child", root, func() {})
	endRoot()
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Workload != "w" || spans[1].Campaign != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].EndNS < spans[1].EndNS || spans[1].StartNS < spans[0].StartNS {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
	var none *recorder
	if d := none.time(0, "x", 0, func() {}); d < 0 {
		t.Errorf("nil recorder timed %v", d)
	}
}

// drain runs a generator through its preload and n batches.
func drain(seed int64, n int) ([][]step, counters) {
	g := newScheduleGen(seed)
	g.preload()
	var batches [][]step
	for i := 0; i < n; i++ {
		batches = append(batches, g.batch(batchRounds))
	}
	return batches, g.expect
}

func TestScheduleIsDeterministic(t *testing.T) {
	a, ea := drain(7, 6)
	b, eb := drain(7, 6)
	if !reflect.DeepEqual(a, b) || ea != eb {
		t.Fatal("the same seed gave two schedules")
	}
	c, _ := drain(8, 6)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleMixAndCounters(t *testing.T) {
	const batches = 12
	sched, expect := drain(3, batches)
	rounds := int64(batches * batchRounds)
	want := counters{
		submits:   preloadSpecs + rounds*roundSubmissions,
		jobsDone:  preloadSpecs + rounds*(roundPairs+roundColds),
		coalesced: rounds * roundPairs,
		cacheHits: rounds * roundRecents,
		storeHits: rounds * roundReloads,
	}
	if expect != want {
		t.Errorf("expected counters %+v, want %+v", expect, want)
	}
	// Exactly a quarter of the timed submissions is recomputed.
	timed := expect.submits - preloadSpecs
	if computed := expect.jobsDone - preloadSpecs; computed*4 != timed {
		t.Errorf("recomputed %d of %d timed submissions, want exactly a quarter", computed, timed)
	}

	// Replay against an exact LRU: every duplicate must find what the
	// schedule aimed it at, with the margins the generator promises.
	var lru []int
	seen := map[int]bool{}
	put := func(spec int) {
		lru = append([]int{spec}, lru...)
		if len(lru) > cacheSize {
			lru = lru[:cacheSize]
		}
	}
	depth := func(spec int) int {
		for i, s := range lru {
			if s == spec {
				return i
			}
		}
		return -1
	}
	for spec := 0; spec < preloadSpecs; spec++ {
		put(spec)
		seen[spec] = true
	}
	for _, batch := range sched {
		for i, st := range batch {
			if st.after >= i {
				t.Fatalf("step %d depends on later step %d", i, st.after)
			}
			d := depth(st.spec)
			switch st.kind {
			case stepCold, stepPair:
				if seen[st.spec] {
					t.Fatalf("first-seen spec %d was seen before", st.spec)
				}
				seen[st.spec] = true
				put(st.spec)
			case stepRecent:
				if d < 0 || d >= recentDepth {
					t.Fatalf("LRU duplicate of spec %d at depth %d, want < %d", st.spec, d, recentDepth)
				}
				lru = append(lru[:d], lru[d+1:]...)
				put(st.spec)
			case stepReload:
				if !seen[st.spec] || d >= 0 {
					t.Fatalf("store reload of spec %d: seen %v, LRU depth %d", st.spec, seen[st.spec], d)
				}
				put(st.spec)
			}
			if st.after >= 0 && batch[st.after].spec != st.spec {
				t.Fatalf("step %d waits for step %d of another spec", i, st.after)
			}
		}
	}
}

// A duplicate absorbed by another mechanism than scheduled is drift; a
// duplicate recomputed, or a first-seen spec absorbed, is a failure.
func TestAdmitSeparatesDriftFromFailure(t *testing.T) {
	for _, c := range []struct {
		name          string
		kind          stepKind
		resp          api.SubmitResponse
		want          stepKind
		failed, drift int
		wantSeen      counters
	}{
		{"cold computed", stepCold, api.SubmitResponse{}, stepCold, 0, 0, counters{}},
		{"pair coalesced", stepPair, api.SubmitResponse{Coalesced: true}, stepPair, 0, 0, counters{coalesced: 1}},
		{"pair late: LRU hit", stepPair, api.SubmitResponse{CacheHit: true}, stepRecent, 0, 1, counters{cacheHits: 1}},
		{"recent evicted: store hit", stepRecent, api.SubmitResponse{StoreHit: true}, stepReload, 0, 1, counters{storeHits: 1}},
		{"duplicate recomputed", stepRecent, api.SubmitResponse{}, stepCold, 1, 0, counters{}},
		{"first-seen absorbed", stepCold, api.SubmitResponse{CacheHit: true}, stepRecent, 1, 1, counters{cacheHits: 1}},
	} {
		h, tl := &host{}, &tally{}
		if got := h.admit(7, c.kind, &c.resp, tl); got != c.want {
			t.Errorf("%s: admitted as %s, want %s", c.name, got, c.want)
		}
		if tl.failed != c.failed || int(h.drifted.Load()) != c.drift || h.seen != c.wantSeen {
			t.Errorf("%s: failed %d drift %d seen %+v, want %d %d %+v", c.name, tl.failed, h.drifted.Load(), h.seen, c.failed, c.drift, c.wantSeen)
		}
	}
}

func TestSheetExportNeedsEveryMetric(t *testing.T) {
	s := sheet{}
	s.set("setup_s", 1)
	if _, err := s.export(endToEnd); err == nil {
		t.Error("export with missing metrics succeeded")
	}
	for _, d := range endToEnd {
		s.set(d.Name, 2)
	}
	m, err := s.export(endToEnd)
	if err != nil || len(m) != len(endToEnd) || m["setup_s"].Unit != "s" {
		t.Errorf("export = %v, %v", m, err)
	}
}

func TestCoreRecoveryCostFromShapes(t *testing.T) {
	// Ten stored cells of a 3×3×3×3×3 join through five 3×2 factors: one
	// sparse product, then four dense ones on 162, 108, 72 and 48 elements.
	join := tensor.NewSparse(tensor.Shape{3, 3, 3, 3, 3})
	for i := 0; i < 10; i++ {
		join.Append([]int{i % 3, i / 3 % 3, 0, 1, 2}, 1)
	}
	factors := make([]*mat.Matrix, 5)
	for i := range factors {
		factors[i] = mat.New(3, 2)
	}
	flops, bytes := coreRecoveryCost(join, factors)
	if flops != 1600 || bytes != 6976 {
		t.Errorf("coreRecoveryCost = %v flops, %v bytes, want 1600, 6976", flops, bytes)
	}
}

func TestConfigsAndCampaignSeeds(t *testing.T) {
	sh := shape{res: 4, rank: 2}
	if cfg := sh.config(serial, 5, methods[0]); cfg.Parallel != 1 || !cfg.SkipAccuracy || cfg.Resolution != 4 || cfg.TimeSamples != 4 {
		t.Errorf("serial config = %+v", cfg)
	}
	if cfg := sh.config(full, 5, methods[0]); cfg.Parallel != 0 {
		t.Errorf("full config Parallel = %d, want 0 (every CPU)", cfg.Parallel)
	}
	for i := -3; i < 50; i++ {
		if s := campaignSeed(int64(i), full, i); s < 1 {
			t.Fatalf("campaignSeed(%d) = %d, want positive", i, s)
		}
	}
	if campaignSeed(1, full, 0) == campaignSeed(1, serial, 0) || campaignSeed(1, full, 0) == campaignSeed(2, full, 0) {
		t.Error("campaign seeds collide across arms or benchmark seeds")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// acceptance driver reads, equal to the tables this program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, want %d", file.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(file.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n%+v\n%+v", file.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", file.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(file.Paths, []string{"cmd/m2tdperf"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		names[d.Name] = true
	}
	for _, w := range workloadDefs {
		if names[w.Name] {
			t.Errorf("name %s used twice", w.Name)
		}
		names[w.Name] = true
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
}
