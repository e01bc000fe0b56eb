package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	m2td "repro"
	"repro/api"
	"repro/internal/obs"
	"repro/internal/store"
)

// producerSeam wraps a Runner and fails the test when a run that wrote to
// its ensemble's catalog — it executed simulations, or died trying — was
// inside the runner at the same time as any other run over that catalog.
// The check needs no clock: every run registers under its CheckpointDir on
// the way in, and a run that arrives while another is registered marks both.
type producerSeam struct {
	t     *testing.T
	inner Runner

	mu      sync.Mutex
	active  map[string]map[*bool]bool // CheckpointDir → the overlap flag of each run inside
	reports map[string]*m2td.Report   // campaign fingerprint → its report
}

func newProducerSeam(t *testing.T, inner Runner) *producerSeam {
	return &producerSeam{t: t, inner: inner, active: make(map[string]map[*bool]bool), reports: make(map[string]*m2td.Report)}
}

func (p *producerSeam) run(ctx context.Context, cfg m2td.Config) (*m2td.Report, error) {
	dir, overlapped := cfg.CheckpointDir, new(bool)
	p.mu.Lock()
	if p.active[dir] == nil {
		p.active[dir] = make(map[*bool]bool)
	}
	for other := range p.active[dir] {
		*other, *overlapped = true, true
	}
	p.active[dir][overlapped] = true
	p.mu.Unlock()

	report, err := p.inner(ctx, cfg)

	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.active[dir], overlapped)
	if wrote := err != nil || report.ExecutedSims > 0; wrote && *overlapped {
		p.t.Errorf("a producer of %s shared its catalog with another running job", dir)
	}
	if err == nil {
		p.reports[cfg.Fingerprint()] = report
	}
	return report, err
}

// reportOf returns the report of the finished run with that fingerprint.
func (p *producerSeam) reportOf(fingerprint string) *m2td.Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reports[fingerprint]
}

// requireDecompositionBits fails unless the stored decomposition equals the
// report's to the last bit.
func requireDecompositionBits(t *testing.T, what string, st *store.Store, name string, want *m2td.Report) {
	t.Helper()
	got, err := st.LoadDecomposition(name)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !same(got.Core.Data, want.Decomposition.Core.Data) || len(got.Factors) != len(want.Decomposition.Factors) {
		t.Fatalf("%s: committed core differs from an independent run's", what)
	}
	for m := range got.Factors {
		if !same(got.Factors[m].Data, want.Decomposition.Factors[m].Data) {
			t.Fatalf("%s: committed mode-%d factor differs from an independent run's", what, m)
		}
	}
}

// requireOneCatalog fails unless the store directory's only subdirectory
// is one sims- catalog: one per ensemble, none per campaign.
func requireOneCatalog(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var subdirs []string
	for _, e := range entries {
		if e.IsDir() {
			subdirs = append(subdirs, e.Name())
		}
	}
	if len(subdirs) != 1 || !strings.HasPrefix(subdirs[0], "sims-") {
		t.Fatalf("store holds subdirectories %v, want exactly one sims- catalog", subdirs)
	}
}

// TestEnsembleSweepSimulatesOnce is the three outcomes end to end: nine
// campaigns over one ensemble (3 methods × 3 ranks) submitted at once to two
// executors cost one simulation stage — one miss, eight sim-set hits —
// every committed decomposition is the one an independent run computes, the
// store holds one sims- catalog, and a restarted server restores it.
func TestEnsembleSweepSimulatesOnce(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seam := newProducerSeam(t, func(ctx context.Context, cfg m2td.Config) (*m2td.Report, error) {
		return m2td.RunCtx(ctx, cfg)
	})
	s, err := New(Options{Store: st, Registry: obs.NewRegistry(), Executors: 2, Parallel: 1, Runner: seam.run})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ctx1, cancel1 := context.WithCancel(ctx)
	s.Start(ctx1)
	hs := httptest.NewServer(s.Handler())
	c := api.NewClient(hs.URL)

	var specs []api.CampaignSpec
	var jobs []string
	for _, method := range []string{"avg", "concat", "select"} {
		for rank := 1; rank <= 3; rank++ {
			spec := tinySpec()
			spec.Method, spec.Rank = method, rank
			sub, err := c.Submit(ctx, api.SubmitRequest{Campaign: spec})
			if err != nil {
				t.Fatal(err)
			}
			if sub.Coalesced || sub.CacheHit || sub.StoreHit {
				t.Fatalf("%s/rank %d was absorbed: %+v", method, rank, sub)
			}
			specs, jobs = append(specs, spec), append(jobs, sub.JobID)
		}
	}

	executed, hits, numSims := 0, 0, 0
	for i, id := range jobs {
		if status, err := c.Wait(ctx, id, 30*time.Second); err != nil || status.State != api.StateDone {
			t.Fatalf("job %s: %+v, %v", id, status, err)
		}
		res, err := c.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.buildConfig(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		report := seam.reportOf(cfg.Fingerprint())
		if report == nil {
			t.Fatalf("job %s never reached the runner", id)
		}
		d := res.Decomposition
		if d.RestoredSims != report.RestoredSims || d.NumSims != report.NumSims {
			t.Fatalf("job %s reports %d restored of %d, its run %d of %d", id, d.RestoredSims, d.NumSims, report.RestoredSims, report.NumSims)
		}
		numSims = report.NumSims
		executed += report.ExecutedSims
		if report.RestoredSims == report.NumSims && report.ExecutedSims == 0 {
			hits++
		}
		independent, err := m2td.RunCtx(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireDecompositionBits(t, fmt.Sprintf("%s/rank %d", specs[i].Method, specs[i].Rank), st, d.StoreName, independent)
	}
	if executed != numSims || hits != 8 {
		t.Fatalf("nine jobs executed %d simulations (one ensemble holds %d) with %d sim-set hits, want 8", executed, numSims, hits)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.JobsDone != 9 || stats.SimSetHits != 8 || stats.JobsFailed != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	prom := fetch(t, hs.URL+"/metrics")
	for _, line := range []string{
		"m2td_serve_simset_hits_total 8",
		fmt.Sprintf("m2td_serve_sims_executed_total %d", numSims),
		fmt.Sprintf("m2td_serve_sims_restored_total %d", 8*numSims),
	} {
		if !strings.Contains(prom, line) {
			t.Fatalf("/metrics missing %q", line)
		}
	}
	requireOneCatalog(t, dir)
	hs.Close()
	cancel1()
	s.wg.Wait()

	// Restart: a new server over the same store knows nothing about the
	// ensemble, and its first job over it still simulates nothing.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{Store: st2, Registry: obs.NewRegistry(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(ctx)
	s2.Start(ctx2)
	hs2 := httptest.NewServer(s2.Handler())
	defer func() { hs2.Close(); cancel2(); s2.wg.Wait() }()
	c2 := api.NewClient(hs2.URL)
	spec := tinySpec()
	spec.ZeroJoin, spec.Seed = true, 5 // a decomposition the first server never computed
	sub, err := c2.Submit(ctx, api.SubmitRequest{Campaign: spec})
	if err != nil {
		t.Fatal(err)
	}
	if sub.StoreHit || sub.CacheHit || sub.Coalesced {
		t.Fatalf("new decomposition was absorbed: %+v", sub)
	}
	if _, err := c2.Wait(ctx, sub.JobID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c2.Result(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Decomposition; d.RestoredSims != d.NumSims || d.NumSims != numSims {
		t.Fatalf("restarted server restored %d of %d simulations", d.RestoredSims, d.NumSims)
	}
	stats2, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.SimSetHits != 1 {
		t.Fatalf("restarted server sim_set_hits = %d, want 1", stats2.SimSetHits)
	}
	requireOneCatalog(t, dir)
}

// TestOneProducerPerEnsemble drives the gate with a runner that stands in
// for the catalogs — the first run over a CheckpointDir "simulates" (and,
// for one ensemble, dies first), later ones "restore" — behind the producer
// seam, on more executors than ensembles. Producers park until every
// submission is queued, so each one's siblings are poppable while it runs:
// only the gate keeps them out.
func TestOneProducerPerEnsemble(t *testing.T) {
	const ensembles, perEnsemble = 3, 6
	var mu sync.Mutex
	complete := make(map[string]bool)
	failed := false
	gate := make(chan struct{})
	fake := func(ctx context.Context, cfg m2td.Config) (*m2td.Report, error) {
		mu.Lock()
		restored := complete[cfg.CheckpointDir]
		mu.Unlock()
		report := cannedReport()
		if restored {
			report.RestoredSims = report.NumSims
			return report, nil
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		mu.Lock()
		defer mu.Unlock()
		if cfg.Resolution == 4 && !failed {
			failed = true
			return nil, errors.New("producer died mid-ensemble")
		}
		complete[cfg.CheckpointDir] = true
		report.ExecutedSims = report.NumSims
		return report, nil
	}
	seam := newProducerSeam(t, fake)
	s, _, c := newTestServer(t, func(o *Options) {
		o.Executors = 4
		o.Runner = seam.run
	})
	ctx := context.Background()

	var jobs []string
	for e := 0; e < ensembles; e++ {
		for k := 0; k < perEnsemble; k++ {
			spec := tinySpec()
			spec.Resolution, spec.Seed = 4+e, int64(k+1)
			sub, err := c.Submit(ctx, api.SubmitRequest{Tenant: fmt.Sprintf("t%d", k), Campaign: spec})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, sub.JobID)
		}
	}
	// Four executors, fifteen queued jobs — and exactly one running job per
	// ensemble, each registered as its producer.
	waitRunning(t, s, ensembles)
	s.mu.Lock()
	running, producers, depth := s.running, len(s.producing), s.queue.Len()
	s.mu.Unlock()
	if running != ensembles || producers != ensembles || depth != ensembles*(perEnsemble-1) {
		t.Fatalf("%d running, %d producers, %d queued; want %d, %d, %d", running, producers, depth, ensembles, ensembles, ensembles*(perEnsemble-1))
	}
	close(gate)

	done, failures := 0, 0
	for _, id := range jobs {
		status, err := c.Wait(ctx, id, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		switch status.State {
		case api.StateDone:
			done++
		case api.StateFailed:
			failures++
		}
	}
	if failures != 1 || done != len(jobs)-1 {
		t.Fatalf("%d done, %d failed of %d jobs; want one failed producer", done, failures, len(jobs))
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Per ensemble: one producer that finished; everyone else restored.
	if want := int64(len(jobs) - 1 - ensembles); stats.SimSetHits != want {
		t.Fatalf("sim_set_hits = %d, want %d", stats.SimSetHits, want)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.producing) != 0 || len(s.simsReady) != ensembles {
		t.Fatalf("after the sweep: %d producers, %d complete catalogs", len(s.producing), len(s.simsReady))
	}
}

// TestAutoPivotRanksAreTwoEnsembles: under pivot "auto" the pilot run that
// picks the pivot decomposes at the campaign's rank, so two campaigns that
// differ only in rank may simulate two different partitions. Each gets its
// own sims- catalog and its own producer: both simulate at once.
func TestAutoPivotRanksAreTwoEnsembles(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	catalogs := make(map[string]bool)
	fake := func(ctx context.Context, cfg m2td.Config) (*m2td.Report, error) {
		mu.Lock()
		catalogs[cfg.CheckpointDir] = true
		mu.Unlock()
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		report := cannedReport()
		report.ExecutedSims = report.NumSims
		return report, nil
	}
	seam := newProducerSeam(t, fake)
	s, _, c := newTestServer(t, func(o *Options) {
		o.Executors = 2
		o.Runner = seam.run
	})
	ctx := context.Background()
	var jobs []string
	for _, rank := range []int{1, 2} {
		spec := tinySpec()
		spec.Pivot, spec.Rank = "auto", rank
		sub, err := c.Submit(ctx, api.SubmitRequest{Campaign: spec})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, sub.JobID)
	}
	waitRunning(t, s, 2)
	s.mu.Lock()
	producers := len(s.producing)
	s.mu.Unlock()
	if producers != 2 {
		t.Fatalf("%d producers for two auto-pivot ranks, want 2", producers)
	}
	close(gate)
	for _, id := range jobs {
		if status, err := c.Wait(ctx, id, 30*time.Second); err != nil || status.State != api.StateDone {
			t.Fatalf("job %s: %+v, %v", id, status, err)
		}
	}
	if len(catalogs) != 2 {
		t.Fatalf("two auto-pivot ranks ran over %d sims- catalogs, want 2", len(catalogs))
	}
}
