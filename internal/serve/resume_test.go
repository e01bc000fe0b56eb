package serve

import (
	"context"
	"testing"
	"time"

	m2td "repro"
	"repro/api"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/store"
)

// killedCampaign starts a server whose every simulation is slowed by
// injected latency and submits tinySpec under a deadline it cannot meet: the
// returned spec's campaign has failed and left a partial sims catalog
// behind. The Runner wraps m2td.RunCtx after fingerprinting; a latency-only
// injector changes no cell and has the clean simulation identity, so the
// catalog's tag is the one the spec itself names.
func killedCampaign(t *testing.T) (*api.Client, api.CampaignSpec, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		Store:    st,
		Registry: obs.NewRegistry(),
		Parallel: 1,
		Runner: func(ctx context.Context, cfg m2td.Config) (*m2td.Report, error) {
			cfg.Faults = &faults.Config{Seed: 1, LatencyRate: 1, Latency: 10 * time.Millisecond}
			return m2td.RunCtx(ctx, cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() { cancel(); s.wg.Wait() })
	s.Start(ctx)
	hs := newClientFor(t, s)

	spec := tinySpec()
	spec.TimeoutMS = 150 // well under sims × 10ms

	sub, err := hs.Submit(ctx, api.SubmitRequest{Campaign: spec})
	if err != nil {
		t.Fatal(err)
	}
	stFirst, err := hs.Wait(ctx, sub.JobID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stFirst.State != api.StateFailed {
		t.Fatalf("deadline-bitten campaign state %s, want failed", stFirst.State)
	}
	if stFirst.Error == nil || stFirst.Error.Code != api.CodeJobFailed {
		t.Fatalf("failed campaign error %+v", stFirst.Error)
	}
	if _, err := hs.Result(ctx, sub.JobID); !isCode(err, api.CodeJobFailed) {
		t.Fatalf("result of failed campaign err %v", err)
	}
	spec.TimeoutMS = 0
	return hs, spec, sub.JobID
}

// requireResumed waits for a job and fails unless it finished having
// restored some, but not all, of its simulations.
func requireResumed(t *testing.T, hs *api.Client, jobID string) {
	t.Helper()
	ctx := context.Background()
	st, err := hs.Wait(ctx, jobID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("resumed campaign state %s (err %v)", st.State, st.Error)
	}
	res, err := hs.Result(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decomposition.RestoredSims == 0 {
		t.Fatal("resumed campaign restored 0 simulations — checkpoint was not used")
	}
	if res.Decomposition.RestoredSims >= res.Decomposition.NumSims {
		t.Fatalf("restored %d of %d sims — first attempt should not have finished",
			res.Decomposition.RestoredSims, res.Decomposition.NumSims)
	}
}

// TestKilledCampaignResumesFromCheckpoint is the serving half of the
// kill-and-recover guarantee: a campaign that dies mid-flight (here via
// its own deadline, with fault-injected simulation latency making the
// deadline bite) leaves a checkpoint behind, and resubmitting the
// identical campaign resumes from it instead of starting over.
func TestKilledCampaignResumesFromCheckpoint(t *testing.T) {
	hs, spec, killed := killedCampaign(t)

	// Identical campaign, no deadline: a fresh job (the failure cleared
	// the in-flight entry) that resumes from the checkpoint.
	sub2, err := hs.Submit(context.Background(), api.SubmitRequest{Campaign: spec})
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Coalesced || sub2.CacheHit || sub2.StoreHit || sub2.JobID == killed {
		t.Fatalf("resubmission should run fresh: %+v", sub2)
	}
	requireResumed(t, hs, sub2.JobID)
}

// TestKilledProducerHandsOverToAnotherDecomposition: the partial catalog
// belongs to the ensemble, not to the campaign that died filling it — a job
// at another method and rank resumes from it rather than restarting, and
// leaves it complete for the job after.
func TestKilledProducerHandsOverToAnotherDecomposition(t *testing.T) {
	hs, spec, _ := killedCampaign(t)
	ctx := context.Background()

	spec.Method, spec.Rank = "avg", 3
	sub, err := hs.Submit(ctx, api.SubmitRequest{Campaign: spec})
	if err != nil {
		t.Fatal(err)
	}
	requireResumed(t, hs, sub.JobID)

	spec.Method = "concat"
	sub, err = hs.Submit(ctx, api.SubmitRequest{Campaign: spec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Wait(ctx, sub.JobID, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := hs.Result(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Decomposition; d.RestoredSims != d.NumSims {
		t.Fatalf("after the hand-over, restored %d of %d sims", d.RestoredSims, d.NumSims)
	}
}
