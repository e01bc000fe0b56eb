package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	m2td "repro"
	"repro/api"
	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
)

const (
	// batchRounds is how many schedule rounds one closed-loop unit runs
	// before its clients meet at a barrier. Every batch has the same
	// admission mix, so batches compare; two rounds keep the barrier's
	// idle tail small beside the batch and the batches numerous.
	batchRounds = 2
	// tenants is how many tenant identities the submissions cycle through.
	tenants = 4
	// predictsPerCampaign follow every terminal state, after one Result.
	predictsPerCampaign = 4
	// fixedSpec is the spec both arms' servers compute for the
	// bit-identity check; no schedule reaches it.
	fixedSpec = 1 << 30
)

// prediction is one Predict call's input and output, kept for the check
// against the in-process model.
type prediction struct {
	params, values []float64
}

// host is one arm's self-hosted campaign server: serve.New over its own
// temporary store, behind net/http on loopback, driven through api.Client.
type host struct {
	arm    arm
	shape  shape
	seed   int64
	dir    string
	st     *store.Store
	srv    *serve.Server
	web    *http.Server
	served chan struct{} // closed when web.Serve has returned
	cancel context.CancelFunc
	client *api.Client
	gen    *scheduleGen

	submissions atomic.Int64
	// drifted counts duplicates the server absorbed by another mechanism
	// than the schedule aimed them at; see admit.
	drifted atomic.Int64

	mu        sync.Mutex
	seen      counters               // absorbed submissions by the mechanism the responses named
	byKind    map[stepKind][]float64 // campaign latency by admission outcome
	queueWait []float64              // computed jobs: caller's latency − run time
	runTime   []float64              // computed jobs: started → finished
	firstPred map[int]prediction     // first prediction per spec
	jobOf     map[int]string         // job that computed a spec
}

// clients is the arm's client count.
func (a arm) clients() int {
	if n := a.units(); n < maxClients {
		return n
	}
	return maxClients
}

func startHost(a arm, sh shape, seed int64, dir string) (*host, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{
		Store:     st,
		CacheSize: cacheSize,
		Executors: a.units(),
		Parallel:  a.parallel(),
		Registry:  obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	h := &host{
		arm: a, shape: sh, seed: seed, dir: dir, st: st, srv: srv,
		web:       &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		served:    make(chan struct{}),
		cancel:    cancel,
		gen:       newScheduleGen(seed),
		byKind:    make(map[stepKind][]float64),
		firstPred: make(map[int]prediction),
		jobOf:     make(map[int]string),
	}
	go func() {
		defer close(h.served)
		_ = h.web.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	h.client = api.NewClient("http://" + ln.Addr().String())
	h.client.HTTPClient = &http.Client{
		Timeout:   5 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * maxClients},
	}
	return h, nil
}

// stop drains the server, closes its listener and connections, and
// removes its store.
func (h *host) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx)
	// The client's connections go first: one it dialled and never used
	// would hold web.Shutdown for five seconds.
	h.client.HTTPClient.CloseIdleConnections()
	_ = h.web.Shutdown(ctx)
	<-h.served
	h.cancel()
	os.RemoveAll(h.dir)
}

// spec is the wire form of campaign identity id.
func (h *host) spec(id int) api.CampaignSpec {
	return api.CampaignSpec{
		System:      string(system),
		Resolution:  h.shape.res,
		TimeSamples: h.shape.res,
		Rank:        h.shape.rank,
		Method:      string(h.method(id)),
		Seed:        h.specSeed(id),
	}
}

func (h *host) method(id int) m2td.Method { return methods[(int(h.seed%3)+3+id%3)%3] }

func (h *host) specSeed(id int) int64 { return campaignSeed(h.seed, full, id) }

// inProcess is the m2td.Config the server builds for spec id, for the
// checks that compare served results with the library's.
func (h *host) inProcess(id int, a arm) m2td.Config {
	return h.shape.config(a, h.specSeed(id), h.method(id))
}

// preload computes the generator's preload specs: the warm-up, and the
// population the first timed round's store reloads come from.
func (h *host) preload(ctx context.Context, t *tally) error {
	var jobs []string
	specs := h.gen.preload()
	for _, id := range specs {
		resp, err := h.client.Submit(ctx, api.SubmitRequest{Tenant: tenantName(id), Campaign: h.spec(id)})
		t.op(err)
		if err != nil {
			return err
		}
		jobs = append(jobs, resp.JobID)
	}
	for i, job := range jobs {
		st, err := h.client.Wait(ctx, job, 0)
		if err == nil && st.State != api.StateDone {
			err = fmt.Errorf("preload job %s finished %s: %v", job, st.State, st.Error)
		}
		t.op(err)
		if err != nil {
			return err
		}
		h.jobOf[specs[i]] = job
	}
	return nil
}

func tenantName(n int) string { return fmt.Sprintf("tenant-%d", n%tenants) }

// runBatch runs one batch of the schedule on the arm's clients and
// returns every submission's latency: submit to terminal state, as the
// caller sees it.
func (h *host) runBatch(ctx context.Context, rounds int, rec *recorder, t *tally) []float64 {
	steps := h.gen.batch(rounds)
	done := make([]chan struct{}, len(steps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var mu sync.Mutex
	var latencies []float64
	var tallies []tally
	var wg sync.WaitGroup
	for c := 0; c < h.arm.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local tally
			var lat []float64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(steps) {
					break
				}
				if after := steps[i].after; after >= 0 {
					<-done[after]
				}
				lat = append(lat, h.runStep(ctx, steps[i], rec, &local)...)
				close(done[i])
			}
			mu.Lock()
			latencies = append(latencies, lat...)
			tallies = append(tallies, local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, local := range tallies {
		t.attempted += local.attempted
		t.failed += local.failed
	}
	return latencies
}

// runStep performs one step: its submissions, each followed to a terminal
// state and then by one Result and four Predict calls.
func (h *host) runStep(ctx context.Context, st step, rec *recorder, t *tally) []float64 {
	type submission struct {
		campaign int
		root     int
		endRoot  func() time.Duration
		start    time.Time
		job      string
		kind     stepKind
	}
	submit := func(kind stepKind) (submission, bool) {
		n := int(h.submissions.Add(1))
		sub := submission{campaign: n, kind: kind, start: time.Now()}
		sub.root, sub.endRoot = rec.start(n, "campaign("+kind.String()+")", 0)
		var resp *api.SubmitResponse
		var err error
		rec.time(n, "api.Submit", sub.root, func() {
			resp, err = h.client.Submit(ctx, api.SubmitRequest{Tenant: tenantName(n), Campaign: h.spec(st.spec)})
		})
		t.op(err)
		if err != nil {
			sub.endRoot()
			return sub, false
		}
		sub.job = resp.JobID
		sub.kind = h.admit(st.spec, kind, resp, t)
		return sub, true
	}

	var subs []submission
	switch st.kind {
	case stepPair:
		lead, ok := submit(stepCold)
		if !ok {
			return nil
		}
		subs = append(subs, lead)
		if dup, ok := submit(stepPair); ok {
			t.check(dup.job == lead.job, "spec %d: coalesced onto job %s, leader is %s", st.spec, dup.job, lead.job)
			subs = append(subs, dup)
		}
	default:
		sub, ok := submit(st.kind)
		if !ok {
			return nil
		}
		subs = append(subs, sub)
	}

	var latencies []float64
	for _, sub := range subs {
		var status *api.JobStatus
		var err error
		rec.time(sub.campaign, "api.Status", sub.root, func() { status, err = h.client.Wait(ctx, sub.job, 0) })
		if err == nil && status.State != api.StateDone {
			err = fmt.Errorf("job %s finished %s: %v", sub.job, status.State, status.Error)
		}
		t.op(err)
		lat := time.Since(sub.start).Seconds()
		if err != nil {
			sub.endRoot()
			continue
		}
		latencies = append(latencies, lat)
		h.mu.Lock()
		h.byKind[sub.kind] = append(h.byKind[sub.kind], lat)
		if sub.kind == stepCold {
			h.jobOf[st.spec] = sub.job
			run := float64(status.FinishedAtMS-status.StartedAtMS) / 1e3
			h.runTime = append(h.runTime, run)
			h.queueWait = append(h.queueWait, lat-run)
		}
		h.mu.Unlock()
		h.followUp(ctx, rec, sub.campaign, sub.root, st.spec, sub.job, t)
		sub.endRoot()
	}
	return latencies
}

// admit checks how the server admitted a submission of the scheduled kind
// and returns the kind it was admitted as. What the program determines is
// checked: a first-seen spec is computed and a duplicate never is. Which
// mechanism absorbs a duplicate also depends on when the submission
// arrives — a coalescing duplicate that a stalled client sends after its
// original has finished is an LRU hit — so another mechanism than the
// scheduled one is counted as drift, which checkStats bounds, not failed.
func (h *host) admit(spec int, kind stepKind, resp *api.SubmitResponse, t *tally) stepKind {
	got := admittedAs(resp)
	t.check((got == stepCold) == (kind == stepCold), "spec %d: %s submission admitted as %+v", spec, kind, *resp)
	if got == stepCold {
		return got
	}
	if got != kind {
		h.drifted.Add(1)
		fmt.Fprintf(os.Stderr, "m2tdperf: note: spec %d: %s duplicate absorbed as %s\n", spec, kind, got)
	}
	h.mu.Lock()
	switch got {
	case stepPair:
		h.seen.coalesced++
	case stepRecent:
		h.seen.cacheHits++
	case stepReload:
		h.seen.storeHits++
	}
	h.mu.Unlock()
	return got
}

// admittedAs classifies how the server admitted a submission: computed
// (stepCold), coalesced onto an in-flight job (stepPair's duplicate),
// served from the LRU (stepRecent) or from the store (stepReload).
func admittedAs(r *api.SubmitResponse) stepKind {
	switch {
	case r.Coalesced:
		return stepPair
	case r.CacheHit:
		return stepRecent
	case r.StoreHit:
		return stepReload
	}
	return stepCold
}

// followUp is what a caller does with a finished campaign: fetch the
// result summary, then predict at a few parameter points.
func (h *host) followUp(ctx context.Context, rec *recorder, campaign, parent, spec int, job string, t *tally) {
	rec.time(campaign, "api.Result", parent, func() {
		res, err := h.client.Result(ctx, job)
		if err == nil && res.Decomposition == nil {
			err = fmt.Errorf("job %s: result carries no decomposition", job)
		}
		t.op(err)
	})
	for k := 0; k < predictsPerCampaign; k++ {
		params := predictParams(uint64(h.seed), uint64(campaign), uint64(k))
		rec.time(campaign, "api.Predict", parent, func() {
			resp, err := h.client.Predict(ctx, job, params)
			if err == nil && len(resp.Values) != h.shape.res {
				err = fmt.Errorf("job %s: predict returned %d values, want %d", job, len(resp.Values), h.shape.res)
			}
			t.op(err)
			if err != nil {
				return
			}
			h.mu.Lock()
			if _, ok := h.firstPred[spec]; !ok {
				h.firstPred[spec] = prediction{params: params, values: resp.Values}
			}
			h.mu.Unlock()
		})
	}
}

// predictParams draws one physical parameter vector inside the system's
// ranges from a counter-based hash of (seed, campaign, call).
func predictParams(seed, campaign, call uint64) []float64 {
	out := make([]float64, len(paramRanges))
	for i, p := range paramRanges {
		u := unitFloat(seed ^ campaign*0x9e3779b97f4a7c15 ^ call<<32 ^ uint64(i)<<40)
		out[i] = p.Min + u*(p.Max-p.Min)
	}
	return out
}

// unitFloat hashes x to [0, 1) (splitmix64 finaliser).
func unitFloat(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// checkStats compares the server's counters with what the schedule
// determines whatever the timing — every first-seen spec computed exactly
// once, every duplicate absorbed — and, mechanism by mechanism, with what
// the server's own responses said. Duplicates absorbed by another
// mechanism than scheduled must stay under maxDriftFrac of the
// submissions: a mechanism that stopped working moves an eighth or more.
func (h *host) checkStats(ctx context.Context, t *tally) (*api.StatsResponse, error) {
	reply, err := h.client.Stats(ctx)
	t.op(err)
	if err != nil {
		return nil, err
	}
	e := h.gen.expect
	h.mu.Lock()
	seen := h.seen
	h.mu.Unlock()
	got := counters{reply.Submits, reply.JobsDone, reply.Coalesced, reply.CacheHits, reply.StoreHits}
	t.check(got.submits == e.submits && got.jobsDone == e.jobsDone && got.absorbed() == e.absorbed() && reply.JobsFailed == 0,
		"%s server counters %+v (failed %d) differ from the schedule's %+v", h.arm, got, reply.JobsFailed, e)
	t.check(got.coalesced == seen.coalesced && got.cacheHits == seen.cacheHits && got.storeHits == seen.storeHits,
		"%s server counters %+v differ from its responses' %+v", h.arm, got, seen)
	drifted := h.drifted.Load()
	t.check(float64(drifted) <= maxDriftFrac*float64(e.submits),
		"%s server absorbed %d of %d submissions by another mechanism than scheduled", h.arm, drifted, e.submits)
	return reply, nil
}

// decomposition loads, from the host's store, what the server committed
// for a finished job.
func (h *host) decomposition(ctx context.Context, job string) (*core.Result, error) {
	res, err := h.client.Result(ctx, job)
	if err != nil {
		return nil, err
	}
	dec, err := h.st.LoadDecomposition(res.Decomposition.StoreName)
	if err != nil {
		return nil, err
	}
	return &core.Result{Core: dec.Core, Factors: dec.Factors}, nil
}

// served is the served-mix workload.
type served struct {
	shape   shape
	seed    int64
	scratch string
	rounds  int // rounds per unit
	hosts   [2]*host
	space   *ensemble.Space
	dirs    int
}

func (w *served) setUp(ctx context.Context, t *tally) error {
	w.space = w.shape.freshSpace()
	w.space.Reference()
	for _, a := range []arm{full, serial} {
		w.dirs++
		h, err := startHost(a, w.shape, w.seed, filepath.Join(w.scratch, fmt.Sprintf("store-%s-%d", a, w.dirs)))
		if err != nil {
			return err
		}
		w.hosts[a] = h
		if err := h.preload(ctx, t); err != nil {
			return err
		}
	}
	return nil
}

// tearDown checks each server's counters against its schedule, then stops
// it.
func (w *served) tearDown(ctx context.Context, t *tally) {
	for a, h := range w.hosts {
		if h != nil {
			if ctx.Err() == nil {
				_, _ = h.checkStats(ctx, t) // a failure is in t
			}
			h.stop()
			w.hosts[a] = nil
		}
	}
}

func (w *served) afterUnit() {}

func (w *served) probe(reps int) (layerProbe, int) {
	return layerProbe{
		primary: w.shape, dense: w.shape, sampled: true,
		reps: reps, distReps: 3, seed: w.seed, scratch: w.scratch,
	}, 3
}

func (w *served) unit(ctx context.Context, a arm, t *tally) []float64 {
	return w.hosts[a].runBatch(ctx, w.rounds, nil, t)
}

// verify checks served predictions against the in-process model and the
// two arms' outputs for one fixed spec against each other (tearDown checks
// the servers' counters); the accuracy is the mean over the
// methods of what the full arm's server committed.
func (w *served) verify(ctx context.Context, t *tally) (float64, error) {
	h := w.hosts[full]

	// One spec per method: the preload's first three.
	var sum float64
	for id := 0; id < len(methods); id++ {
		pred, ok := h.firstPred[id]
		if !ok {
			// The schedule never duplicated this spec; predict now.
			pred.params = predictParams(uint64(w.seed), uint64(id), 0)
			resp, err := h.client.Predict(ctx, h.jobOf[id], pred.params)
			t.op(err)
			if err != nil {
				return 0, err
			}
			pred.values = resp.Values
		}
		report, err := m2td.RunCtx(ctx, h.inProcess(id, serial))
		t.op(err)
		if err != nil {
			return 0, err
		}
		want, err := report.Predict(pred.params)
		t.op(err)
		if err != nil {
			return 0, err
		}
		t.check(sameBits(pred.values, want), "spec %d: served prediction %v differs from in-process %v", id, pred.values, want)

		res, err := h.decomposition(ctx, h.jobOf[id])
		t.op(err)
		if err != nil {
			return 0, err
		}
		t.check(decompFingerprint(res) == decompFingerprint(report.Decomposition),
			"spec %d: committed decomposition differs from the in-process one", id)
		acc, err := sampledAccuracy(w.space, res)
		if err != nil {
			return 0, err
		}
		sum += acc
	}

	var hashes [2]uint64
	for a, h := range w.hosts {
		resp, err := h.client.Submit(ctx, api.SubmitRequest{Tenant: tenantName(0), Campaign: h.spec(fixedSpec)})
		t.op(err)
		if err != nil {
			return 0, err
		}
		if _, err := h.client.Wait(ctx, resp.JobID, 0); err != nil {
			t.op(err)
			return 0, err
		}
		h.gen.expect.submits++ // tearDown's counter check sees this job too
		h.gen.expect.jobsDone++
		res, err := h.decomposition(ctx, resp.JobID)
		t.op(err)
		if err != nil {
			return 0, err
		}
		hashes[a] = decompFingerprint(res)
	}
	t.check(hashes[full] == hashes[serial], "served-mix: full arm %016x and serial arm %016x decompositions differ", hashes[full], hashes[serial])
	return sum / float64(len(methods)), nil
}

func sameBits(a, b []float64) bool {
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

// servedProbe is the serving part of a traced pass: units batches of the
// schedule against a full-arm server with every api.Client call recorded
// as a span, classified by admission outcome.
func servedProbe(ctx context.Context, rec *recorder, s sheet, t *tally, sh shape, seed int64, dir string, units, rounds int) ([]float64, error) {
	h, err := startHost(full, sh, seed, dir)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	if err := h.preload(ctx, t); err != nil {
		return nil, err
	}
	before := h.gen.expect
	var latencies []float64
	for u := 0; u < units; u++ {
		latencies = append(latencies, h.runBatch(ctx, rounds, rec, t)...)
	}
	counts, err := h.checkStats(ctx, t)
	if err != nil {
		return nil, err
	}

	s.setMedian("serve.cold_s_p50", h.byKind[stepCold])
	s.setMedian("serve.coalesced_s_p50", h.byKind[stepPair])
	s.setMedian("serve.cache_hit_s_p50", h.byKind[stepRecent])
	s.setMedian("serve.store_hit_s_p50", h.byKind[stepReload])
	// What a computed submission spends outside its executor: the caller's
	// latency minus the server's run time. (JobStatus's own submitted →
	// started difference has a 1 ms grain and reads 0: jobs queue for less.)
	s.setOf("serve.queue_wait_s_mean", stats.Mean(h.queueWait), h.queueWait)
	s.setMedian("serve.run_s_p50", h.runTime)
	s.set("serve.jobs_done", float64(counts.JobsDone-before.jobsDone))
	s.set("serve.coalesced", float64(counts.Coalesced-before.coalesced))
	s.set("serve.cache_hits", float64(counts.CacheHits-before.cacheHits))
	s.set("serve.store_hits", float64(counts.StoreHits-before.storeHits))
	s.set("serve.recompute_frac", float64(counts.JobsDone-before.jobsDone)/float64(counts.Submits-before.submits))

	// The same spec in-process, on the server's own settings: what a cold
	// submission costs beyond the computation.
	var inproc []float64
	for i := 0; i < 5; i++ {
		inproc = append(inproc, rec.time(0, "m2td.RunCtx(spec)", 0, func() {
			_, err := m2td.RunCtx(ctx, h.inProcess(i, full))
			t.op(err)
		}))
	}
	s.setOf("serve.overhead_s", s["serve.cold_s_p50"].value-median(inproc), inproc)

	calls := make(map[string][]float64)
	for _, sp := range rec.snapshot() {
		calls[sp.Name] = append(calls[sp.Name], float64(sp.EndNS-sp.StartNS)/1e9)
	}
	s.setMedian("api.submit_s_p50", calls["api.Submit"])
	s.setMedian("api.status_s_p50", calls["api.Status"])
	s.setMedian("api.result_s_p50", calls["api.Result"])
	s.setMedian("api.predict_s_p50", calls["api.Predict"])
	s.setOf("api.predict_s_p90", percentile(calls["api.Predict"], 0.90), calls["api.Predict"])
	return latencies, nil
}
