// Package serve hosts the campaign server: a long-running HTTP/JSON
// service (the `tensorstore serve` subcommand) that accepts M2TD campaign
// submissions over the typed /v1/ API (package api), runs them through the
// m2td facade on a bounded executor pool, and serves decompositions and
// predictions back — the systems layer the paper's D-M2TD formulation and
// the TuckerMPI line of work argue for on top of a one-shot library.
//
// The serving pipeline, front to back:
//
//   - admission: per-tenant quotas (a tenant may hold at most TenantQuota
//     queued+running campaigns) and a bounded server-wide priority queue —
//     higher Priority runs first, FIFO within a priority.
//   - identity: a campaign has two, both defined by package m2td.
//     Config.Fingerprint names the campaign (ensemble + decomposition
//     fields); Config.SimFingerprint, its prefix, names the ensemble —
//     the simulations — alone. Campaigns that differ in rank, method or
//     zero-join (and, at P = E = 1, in seed) share an ensemble.
//   - coalescing: a campaign whose Fingerprint is already queued or
//     running attaches to that job as a waiter instead of enqueueing
//     duplicate work.
//   - caching: finished decompositions sit in an in-memory LRU keyed by
//     the same fingerprint, and are persisted to the crash-safe store
//     (decomposition + JSON result header), so identical submissions after
//     an eviction — or a process restart — are served without recompute.
//   - execution: Executors goroutines drain the queue, running each
//     campaign via m2td.RunCtx resumed from its ENSEMBLE's simulation
//     catalog, so a popped job has one of three outcomes. Decomposition
//     hit: the tiers above absorbed it and nothing runs. Sim-set hit: the
//     catalog is complete, every simulation is restored, and the job only
//     decomposes and commits. Miss: the job simulates, checkpointing into
//     the catalog — from wherever a timed-out or killed job of that
//     ensemble, of any rank or method, left it. One producer per
//     ensemble: a queued job whose ensemble a running job is simulating
//     is passed over (it keeps its queue position) until that producer's
//     terminal transition, so two jobs never simulate or write one
//     catalog; ensembles already seen complete are never gated, so
//     sim-set hits run side by side. Per-job deadlines apply; large
//     campaigns are transparently dispatched onto Config.Distributed.
//   - store layout: dec-<hash(Fingerprint)> and hdr-<hash(Fingerprint)>
//     per computed campaign, one sims-<hash(SimFingerprint)>/ catalog per
//     ensemble (bounded by the distinct ensembles requested; nothing
//     evicts them yet).
//   - shutdown: draining a server rejects new submissions with
//     CodeShuttingDown while queued and running campaigns finish, bounded
//     by the caller's context.
//
// Every serving decision is observable through the internal/obs registry
// (Prometheus /metrics plus pprof, mounted next to the API routes):
// submission/coalescing/cache counters — server-wide and per tenant —
// sim-set hits and simulations executed/restored, queue depth and running
// gauges, and request/job latency histograms.
package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"sync"
	"time"

	m2td "repro"
	"repro/api"
	"repro/internal/obs"
	"repro/internal/store"
)

// Runner executes one campaign; the default is m2td.RunCtx. Tests swap in
// fakes to exercise the serving machinery without simulating.
type Runner func(ctx context.Context, cfg m2td.Config) (*m2td.Report, error)

// Options configures a Server. The zero value of every field selects a
// sensible default; Store is required.
type Options struct {
	// Store is the durable catalog decompositions, result headers, and
	// campaign checkpoints persist into (required).
	Store *store.Store
	// MaxQueue bounds the queued-campaign count (default 1024); beyond it
	// submissions are rejected with CodeQueueFull.
	MaxQueue int
	// TenantQuota bounds one tenant's queued+running campaigns (default
	// 64); beyond it that tenant's submissions are rejected with
	// CodeQuotaExceeded. Coalesced waiters don't count — attaching to
	// in-flight work is free.
	TenantQuota int
	// CacheSize bounds the in-memory decomposition LRU (default 128
	// entries). Evicted results remain served from the store.
	CacheSize int
	// Executors is the concurrent-campaign limit (default 2).
	Executors int
	// JobTimeout bounds each campaign's wall clock when the submission
	// does not set its own TimeoutMS (default: none).
	JobTimeout time.Duration
	// Parallel is the per-campaign kernel worker-pool size passed through
	// to m2td.Config.Parallel (0 = all CPUs).
	Parallel int
	// Registry receives the serving metrics (nil = obs.Default). Tests
	// hosting several servers should give each its own registry: metric
	// registration is get-or-create, so two servers sharing a registry
	// share (and double-count) instruments.
	Registry *obs.Registry
	// Runner overrides campaign execution (default m2td.RunCtx).
	Runner Runner
}

func (o Options) withDefaults() Options {
	if o.MaxQueue == 0 {
		o.MaxQueue = 1024
	}
	if o.TenantQuota == 0 {
		o.TenantQuota = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 128
	}
	if o.Executors == 0 {
		o.Executors = 2
	}
	if o.Registry == nil {
		o.Registry = obs.Default
	}
	return o
}

// Server is the campaign server. Construct with New, launch executors
// with Start, mount Handler on an http.Server, and stop with Shutdown.
type Server struct {
	opts    Options
	st      *store.Store
	runner  Runner
	metrics *metrics

	mu       sync.Mutex
	jobs     map[string]*job // by job ID
	inflight map[string]*job // fingerprint → queued/running job
	// producing maps a sim hash to the running job that is simulating that
	// ensemble into its catalog; simsReady holds the sim hashes whose
	// catalog this process has seen a job leave complete. Together they are
	// the one-producer rule (see nextLocked): neither holds simulation data.
	producing map[string]*job
	simsReady map[string]bool
	// series names the per-tenant metric series: request headers alone
	// cannot grow the registry, and admitted tenants only up to a cap.
	series     tenantSeries
	queue      jobQueue
	cache      *lruCache
	tenantLoad map[string]int
	running    int
	draining   bool
	seq        int64

	wake      chan struct{}
	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup
	started   bool
}

// New builds a Server over opts.Store.
func New(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("serve: Options.Store is required")
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:       opts,
		st:         opts.Store,
		runner:     opts.Runner,
		jobs:       make(map[string]*job),
		inflight:   make(map[string]*job),
		producing:  make(map[string]*job),
		simsReady:  make(map[string]bool),
		cache:      newLRU(opts.CacheSize),
		tenantLoad: make(map[string]int),
		wake:       make(chan struct{}, 1),
	}
	if s.runner == nil {
		s.runner = m2td.RunCtx
	}
	s.metrics = newMetrics(opts.Registry, s)
	return s, nil
}

// Start launches the executor pool under ctx. Cancelling ctx hard-stops
// the executors; prefer Shutdown for a graceful drain.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.runCtx, s.cancelRun = context.WithCancel(ctx)
	for i := 0; i < s.opts.Executors; i++ {
		s.wg.Add(1)
		go s.executor(s.runCtx)
	}
}

// Shutdown drains the server: new submissions are rejected with
// CodeShuttingDown while queued and running campaigns finish. When ctx
// expires first, the remaining work is cancelled and queued jobs fail
// with CodeShuttingDown. Executors are always stopped and joined before
// Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	started := s.started
	s.mu.Unlock()
	if !started {
		return nil
	}

	var err error
drain:
	for {
		s.mu.Lock()
		idle := s.queue.Len() == 0 && s.running == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break drain
		case <-time.After(20 * time.Millisecond):
		}
	}
	s.cancelRun()
	s.failQueued(&api.Error{Code: api.CodeShuttingDown, Message: "server shut down before the campaign ran"})
	s.wg.Wait()
	return err
}

// failQueued fails every still-queued job (forced-shutdown path) so no
// waiter blocks forever.
func (s *Server) failQueued(cause *api.Error) {
	s.mu.Lock()
	stranded := s.queue.items
	s.queue.items = nil
	s.mu.Unlock()
	for _, j := range stranded {
		s.fail(j, cause)
	}
}

// executor drains the queue until ctx is cancelled.
func (s *Server) executor(ctx context.Context) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.wake:
		}
		for {
			s.mu.Lock()
			var j *job
			if ctx.Err() == nil {
				j = s.nextLocked()
			}
			s.mu.Unlock()
			if j == nil {
				break
			}
			s.run(ctx, j)
		}
	}
}

// nextLocked moves the next runnable job to StateRunning (s.mu held; nil
// when nothing queued may run). It is the one-producer rule: a job whose
// ensemble a running job is simulating right now stays queued until that
// producer's terminal transition, so two jobs never simulate — or write —
// one sims-<hash>/ catalog at once. The popped job becomes its ensemble's
// producer unless the catalog is already known complete, in which case it
// only restores and any number of such jobs run side by side.
func (s *Server) nextLocked() *job {
	j := s.queue.pop(func(j *job) bool { return s.producing[j.simHash] != nil })
	if j == nil {
		return nil
	}
	if !s.simsReady[j.simHash] {
		s.producing[j.simHash] = j
	}
	j.state = api.StateRunning
	j.startedAt = time.Now()
	s.running++
	if s.queue.Len() > 0 {
		s.signal() // one wake token may stand for several submissions
	}
	return j
}

// releaseLocked is the sims-catalog half of a job's terminal transition
// (s.mu held): a producer gives its ensemble up — to the next queued job of
// that ensemble, which resumes from whatever the catalog holds — and a
// report that accounts for every simulation as restored or executed marks
// the catalog complete.
func (s *Server) releaseLocked(j *job, report *m2td.Report) {
	if report != nil && report.NumSims > 0 && report.RestoredSims+report.ExecutedSims == report.NumSims {
		s.simsReady[j.simHash] = true
	}
	if s.producing[j.simHash] == j {
		delete(s.producing, j.simHash)
		s.signal()
	}
}

// signal wakes one executor without blocking.
func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// fingerprintHash is the compact store-name form of a config fingerprint.
func fingerprintHash(fp string) string {
	h := fnv.New64a()
	h.Write([]byte(fp))
	return fmt.Sprintf("%016x", h.Sum64())
}

// submit is the admission path: coalesce → cache → store → quota/queue.
// It returns the response or a typed error. The lock is taken twice, each
// time released by a defer: the store probe between is disk I/O.
func (s *Server) submit(tenant string, priority int, cfg m2td.Config, timeoutMS int64) (*api.SubmitResponse, *api.Error) {
	fp := cfg.Fingerprint()
	hash := fingerprintHash(fp)
	if resp, apiErr := s.admit(fp); resp != nil || apiErr != nil {
		return resp, apiErr
	}

	// Durable store behind the cache: a prior process may have finished
	// this campaign.
	info, stored := s.loadHeader(hash)

	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the lock: a concurrent submit may have raced us.
	if resp := s.absorbLocked(fp); resp != nil {
		return resp, nil
	}
	if stored {
		j := s.newJobLocked(tenant, fp, hash, priority, cfg, timeoutMS)
		j.state = api.StateDone
		j.finishedAt = j.submittedAt
		j.info = info
		close(j.done)
		s.cache.put(fp, &cacheEntry{jobID: j.id, info: info})
		s.metrics.storeHits.Inc()
		return &api.SubmitResponse{JobID: j.id, State: api.StateDone, Fingerprint: fp, StoreHit: true}, nil
	}
	if s.draining {
		return nil, &api.Error{Code: api.CodeShuttingDown, Message: "server is draining"}
	}
	if s.tenantLoad[tenant] >= s.opts.TenantQuota {
		s.metrics.quotaRejected.Inc()
		return nil, &api.Error{
			Code:    api.CodeQuotaExceeded,
			Message: fmt.Sprintf("tenant %q holds %d campaigns (quota %d)", tenant, s.tenantLoad[tenant], s.opts.TenantQuota),
		}
	}
	if s.queue.Len() >= s.opts.MaxQueue {
		s.metrics.queueRejected.Inc()
		return nil, &api.Error{
			Code:    api.CodeQueueFull,
			Message: fmt.Sprintf("queue holds %d campaigns (max %d)", s.queue.Len(), s.opts.MaxQueue),
		}
	}
	j := s.newJobLocked(tenant, fp, hash, priority, cfg, timeoutMS)
	s.inflight[fp] = j
	s.tenantLoad[tenant]++
	s.queue.push(j)
	s.signal()
	return &api.SubmitResponse{JobID: j.id, State: api.StateQueued, Fingerprint: fp}, nil
}

// admit opens a submission: a draining server refuses it, and in-flight
// work or the LRU absorbs it. (nil, nil) means neither did.
func (s *Server) admit(fp string) (*api.SubmitResponse, *api.Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &api.Error{Code: api.CodeShuttingDown, Message: "server is draining"}
	}
	s.metrics.submits.Inc()
	if resp := s.absorbLocked(fp); resp != nil {
		return resp, nil
	}
	s.metrics.cacheMisses.Inc()
	return nil, nil
}

// absorbLocked answers a submission from an identical queued or running
// job, or else from the LRU, and counts the answer (s.mu held). It returns
// nil when neither holds the campaign.
func (s *Server) absorbLocked(fp string) *api.SubmitResponse {
	if j := s.inflight[fp]; j != nil {
		j.waiters++
		s.metrics.coalesced.Inc()
		return &api.SubmitResponse{JobID: j.id, State: j.state, Fingerprint: fp, Coalesced: true}
	}
	if e := s.cache.get(fp); e != nil {
		s.metrics.cacheHits.Inc()
		return &api.SubmitResponse{JobID: e.jobID, State: api.StateDone, Fingerprint: fp, CacheHit: true}
	}
	return nil
}

// newJobLocked allocates and registers a job record (s.mu held).
func (s *Server) newJobLocked(tenant, fp, hash string, priority int, cfg m2td.Config, timeoutMS int64) *job {
	s.seq++
	j := &job{
		id:          fmt.Sprintf("j%d", s.seq),
		seq:         s.seq,
		tenant:      tenant,
		fingerprint: fp,
		hash:        hash,
		simHash:     fingerprintHash(cfg.SimFingerprint()),
		priority:    priority,
		cfg:         cfg,
		timeoutMS:   timeoutMS,
		state:       api.StateQueued,
		waiters:     1,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	s.jobs[j.id] = j
	return j
}

// buildConfig maps a wire CampaignSpec onto a validated m2td.Config,
// canonicalizing free-form names so aliases coalesce onto one
// fingerprint. The server's posture differs from the library default in
// one way: accuracy evaluation is skipped unless the submission asks for
// a sampled estimate — the exact metric simulates the entire space.
func (s *Server) buildConfig(spec api.CampaignSpec) (m2td.Config, error) {
	cfg := m2td.Config{
		Resolution:         spec.Resolution,
		TimeSamples:        spec.TimeSamples,
		Rank:               spec.Rank,
		Pivot:              spec.Pivot,
		PivotDensity:       spec.PivotDensity,
		SubEnsembleDensity: spec.SubEnsembleDensity,
		ZeroJoin:           spec.ZeroJoin,
		Seed:               spec.Seed,
		Parallel:           s.opts.Parallel,
	}
	if spec.System != "" {
		sys, err := m2td.ParseSystem(spec.System)
		if err != nil {
			return m2td.Config{}, err
		}
		cfg.System = sys
	}
	if spec.Method != "" {
		method, err := m2td.ParseMethod(spec.Method)
		if err != nil {
			return m2td.Config{}, err
		}
		cfg.Method = method
	}
	// Resolution, time samples and sampled fibres each size an allocation.
	if spec.Resolution < 0 || spec.Resolution > 256 {
		return m2td.Config{}, fmt.Errorf("resolution %d outside [0, 256]", spec.Resolution)
	}
	if spec.TimeSamples > 256 {
		return m2td.Config{}, fmt.Errorf("time_samples %d outside [0, 256]", spec.TimeSamples)
	}
	if spec.AccuracySampleSims > 65536 {
		return m2td.Config{}, fmt.Errorf("accuracy_sample_sims %d outside [0, 65536]", spec.AccuracySampleSims)
	}
	if spec.TimeSamples < 0 || spec.Rank < 0 || spec.AccuracySampleSims < 0 || spec.TimeoutMS < 0 {
		return m2td.Config{}, fmt.Errorf("negative sizes are invalid")
	}
	if d := spec.PivotDensity; d < 0 || d > 1 {
		return m2td.Config{}, fmt.Errorf("pivot_density %v outside (0, 1]", d)
	}
	if d := spec.SubEnsembleDensity; d < 0 || d > 1 {
		return m2td.Config{}, fmt.Errorf("sub_density %v outside (0, 1]", d)
	}
	switch {
	case spec.AccuracySampleSims > 0:
		cfg.AccuracySampleSims = spec.AccuracySampleSims
	default:
		cfg.SkipAccuracy = true
	}
	if d := spec.Distributed; d != nil {
		workers := d.Workers
		if workers < 1 {
			workers = 1
		}
		if d.Shards < 0 || d.Shards > 1024 || workers > 64 {
			return m2td.Config{}, fmt.Errorf("distributed spec out of range")
		}
		cfg.Distributed = &m2td.DistributedConfig{Workers: workers, Shards: d.Shards}
	}
	// A pivot the system lacks fails here, not in a queued job.
	if err := cfg.CheckPivot(); err != nil {
		return m2td.Config{}, err
	}
	return cfg, nil
}

// simsDir is an ensemble's simulation catalog, keyed by the hash of
// m2td.Config.SimFingerprint under the store directory (the store's object
// listing skips subdirectories) and shared by every campaign over that
// ensemble.
func (s *Server) simsDir(simHash string) string {
	return filepath.Join(s.st.Dir(), "sims-"+simHash)
}

// statusLocked snapshots a job as its wire status (s.mu held).
func (s *Server) statusLocked(j *job) api.JobStatus {
	st := api.JobStatus{
		ID:            j.id,
		Tenant:        j.tenant,
		State:         j.state,
		Fingerprint:   j.fingerprint,
		Waiters:       j.waiters,
		Distributed:   j.cfg.Distributed != nil,
		SubmittedAtMS: j.submittedAt.UnixMilli(),
		Error:         j.err,
	}
	if !j.startedAt.IsZero() {
		st.StartedAtMS = j.startedAt.UnixMilli()
	}
	if !j.finishedAt.IsZero() {
		st.FinishedAtMS = j.finishedAt.UnixMilli()
	}
	if j.state == api.StateQueued {
		st.QueuePosition = s.queue.position(j)
	}
	return st
}

// jobByID fetches a job.
func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobList snapshots every job, most recent first.
func (s *Server) jobList() []api.JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]api.JobStatus, 0, len(s.jobs))
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	sort.Slice(js, func(a, b int) bool { return js[a].seq > js[b].seq })
	for _, j := range js {
		out = append(out, s.statusLocked(j))
	}
	return out
}

// stats snapshots the serving counters as the typed wire struct.
func (s *Server) stats() api.StatsResponse {
	s.mu.Lock()
	depth, running, draining := s.queue.Len(), s.running, s.draining
	s.mu.Unlock()
	m := s.metrics
	return api.StatsResponse{
		Submits:       m.submits.Value(),
		Coalesced:     m.coalesced.Value(),
		CacheHits:     m.cacheHits.Value(),
		CacheMisses:   m.cacheMisses.Value(),
		StoreHits:     m.storeHits.Value(),
		QuotaRejected: m.quotaRejected.Value(),
		QueueRejected: m.queueRejected.Value(),
		JobsDone:      m.jobsDone.Value(),
		JobsFailed:    m.jobsFailed.Value(),
		SimSetHits:    m.simSetHits.Value(),
		QueueDepth:    int64(depth),
		Running:       int64(running),
		Draining:      draining,
	}
}
