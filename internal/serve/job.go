package serve

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"time"

	m2td "repro"
	"repro/api"
	"repro/internal/core"
	"repro/internal/tucker"
)

// job is one campaign's lifecycle record. Mutable fields are guarded by
// the server mutex; done closes exactly once, at the terminal transition.
type job struct {
	id          string
	seq         int64
	tenant      string
	fingerprint string
	hash        string // of fingerprint: names the dec-/hdr- objects
	simHash     string // of cfg.SimFingerprint(): names the sims- catalog
	priority    int
	cfg         m2td.Config
	timeoutMS   int64

	state       api.JobState
	waiters     int
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	err         *api.Error
	info        *api.DecompositionInfo
	report      *m2td.Report
	heapIndex   int
	done        chan struct{}

	loadOnce sync.Once
	loadErr  error
}

// run executes one campaign on an executor goroutine. The job is already
// in StateRunning. Every campaign runs with its ensemble's catalog as a
// resumed checkpoint: a complete catalog restores every simulation and the
// run only decomposes, a partial one (a failed producer's) is continued,
// an absent one is filled.
func (s *Server) run(ctx context.Context, j *job) {
	cfg := j.cfg
	cfg.CheckpointDir = s.simsDir(j.simHash)
	cfg.Resume = true
	timeout := time.Duration(j.timeoutMS) * time.Millisecond
	if timeout == 0 {
		timeout = s.opts.JobTimeout
	}
	rctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	report, err := s.runner(rctx, cfg)
	if err != nil {
		s.fail(j, &api.Error{Code: api.CodeJobFailed, Message: err.Error()})
		return
	}
	s.complete(j, report)
}

// complete finishes a job successfully: the decomposition and its JSON
// result header are persisted to the store, a slim report (space + core +
// factors — what Predict needs) goes into the LRU, and waiters unblock.
func (s *Server) complete(j *job, report *m2td.Report) {
	info := infoFromReport(report)
	if err := s.persist(j, report, info); err != nil {
		s.fail(j, &api.Error{Code: api.CodeInternal, Message: "persist result: " + err.Error()})
		return
	}
	slim := slimReport(report)

	s.mu.Lock()
	j.state = api.StateDone
	j.finishedAt = time.Now()
	j.info = info
	j.report = slim
	s.running--
	delete(s.inflight, j.fingerprint)
	s.releaseLocked(j, report)
	s.releaseTenantLocked(j.tenant)
	s.cache.put(j.fingerprint, &cacheEntry{jobID: j.id, info: info, report: slim})
	s.metrics.jobsDone.Inc()
	s.metrics.simsExecuted.Add(int64(report.ExecutedSims))
	s.metrics.simsRestored.Add(int64(report.RestoredSims))
	if report.NumSims > 0 && report.RestoredSims == report.NumSims {
		s.metrics.simSetHits.Inc()
	}
	s.metrics.jobSeconds.Observe(j.finishedAt.Sub(j.submittedAt).Seconds())
	s.mu.Unlock()
	close(j.done)
}

// releaseTenantLocked gives back one of tenant's quota slots (s.mu held).
// A tenant holding none has no entry, so the map is as large as the
// tenants with campaigns queued or running.
func (s *Server) releaseTenantLocked(tenant string) {
	if s.tenantLoad[tenant] <= 1 {
		delete(s.tenantLoad, tenant)
		return
	}
	s.tenantLoad[tenant]--
}

// fail moves a job to StateFailed and unblocks waiters.
func (s *Server) fail(j *job, cause *api.Error) {
	s.mu.Lock()
	if j.state == api.StateRunning {
		s.running--
	}
	j.state = api.StateFailed
	j.finishedAt = time.Now()
	j.err = cause
	delete(s.inflight, j.fingerprint)
	s.releaseLocked(j, nil)
	s.releaseTenantLocked(j.tenant)
	s.metrics.jobsFailed.Inc()
	s.mu.Unlock()
	close(j.done)
}

// decName and hdrName are the store objects one finished campaign
// occupies: the decomposition and its JSON result header.
func decName(hash string) string { return "dec-" + hash }
func hdrName(hash string) string { return "hdr-" + hash }

// persist writes the campaign result to the durable store. The header is
// written after the decomposition: a header implies its decomposition is
// readable, so loadHeader is the store-hit probe.
func (s *Server) persist(j *job, report *m2td.Report, info *api.DecompositionInfo) error {
	dec := report.Decomposition
	ranks := make([]int, len(dec.Core.Shape))
	copy(ranks, dec.Core.Shape)
	if err := s.st.SaveDecomposition(decName(j.hash), tucker.Decomposition{
		Core: dec.Core, Factors: dec.Factors, Ranks: ranks,
	}); err != nil {
		return err
	}
	info.StoreName = decName(j.hash)
	data, err := json.Marshal(info)
	if err != nil {
		return err
	}
	return s.st.SaveBlob(hdrName(j.hash), data)
}

// loadHeader probes the store for a prior run's result header.
func (s *Server) loadHeader(hash string) (*api.DecompositionInfo, bool) {
	data, err := s.st.LoadBlob(hdrName(hash))
	if err != nil {
		return nil, false
	}
	var info api.DecompositionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, false
	}
	return &info, true
}

// infoFromReport summarises a finished run as the wire result struct.
func infoFromReport(report *m2td.Report) *api.DecompositionInfo {
	dec := report.Decomposition
	info := &api.DecompositionInfo{
		NumSims:      report.NumSims,
		JoinCells:    report.JoinCells,
		SimMS:        report.SimTime.Milliseconds(),
		DecompMS:     report.DecompTime.Milliseconds(),
		RestoredSims: report.RestoredSims,
		Distributed:  report.Distributed != nil,
	}
	if !math.IsNaN(report.Accuracy) {
		info.Accuracy = report.Accuracy
		info.AccuracyValid = true
	}
	if dec != nil && dec.Core != nil {
		info.CoreShape = append([]int(nil), dec.Core.Shape...)
		info.Ranks = append([]int(nil), dec.Core.Shape...)
	}
	return info
}

// slimReport strips a run report down to what Predict needs — the space
// and the core+factors — so cached entries don't pin join tensors or
// partitions in memory.
func slimReport(report *m2td.Report) *m2td.Report {
	if report.Decomposition == nil {
		return nil
	}
	return &m2td.Report{
		Space: report.Space,
		Decomposition: &core.Result{
			Core:    report.Decomposition.Core,
			Factors: report.Decomposition.Factors,
		},
	}
}

// reportFor returns a job's predictable report, reconstructing it from
// the durable store the first time a restart-era job is asked to predict.
func (s *Server) reportFor(j *job) (*m2td.Report, error) {
	s.mu.Lock()
	if j.report != nil {
		r := j.report
		s.mu.Unlock()
		return r, nil
	}
	// The cache may still hold the slim report under this fingerprint.
	if e := s.cache.get(j.fingerprint); e != nil && e.report != nil {
		j.report = e.report
		r := j.report
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()

	j.loadOnce.Do(func() {
		dec, err := s.st.LoadDecomposition(decName(j.hash))
		if err != nil {
			j.loadErr = err
			return
		}
		space, err := j.cfg.Space()
		if err != nil {
			j.loadErr = err
			return
		}
		slim := &m2td.Report{
			Space:         space,
			Decomposition: &core.Result{Core: dec.Core, Factors: dec.Factors},
		}
		s.mu.Lock()
		j.report = slim
		if e := s.cache.get(j.fingerprint); e != nil {
			e.report = slim
		}
		s.mu.Unlock()
	})
	if j.loadErr != nil {
		return nil, j.loadErr
	}
	s.mu.Lock()
	r := j.report
	s.mu.Unlock()
	return r, nil
}
