package m2td

import (
	"fmt"

	"repro/internal/distnet"
	"repro/internal/eval"
)

// A campaign has a two-level identity, each printing every field as the
// value a run uses, so spellings of one campaign share it as written.
// SimFingerprint names the ENSEMBLE — simulations are the budgeted resource,
// so Config.CheckpointDir and the campaign server's sims-<hash>/ catalogs
// key on it, and a rank sweep or the three fusion methods share one.
// Fingerprint names the CAMPAIGN: the ensemble plus every field that shapes
// the decomposition, the key of stored decompositions.

// SimFingerprint returns the ensemble's eval.SimKey: system, resolution,
// time samples, pivot, P, E and the injector's cell-changing fields; the
// seed where P < 1 or E < 1 sample with it; under Pivot "auto" the seed and
// rank of the pilot run that picks the pivot. Method, zero-join, the route
// and the rank under a named pivot never enter it. Equal SimFingerprints
// mean bit-identical partitions. It builds no space and simulates nothing.
func (c Config) SimFingerprint() string {
	cfg := c.normalize()
	return cfg.simKey(cfg.Pivot)
}

// simKey is the simulation key of a normalized config at the given pivot:
// Config.Pivot as written for SimFingerprint, the resolved pivot's mode
// name for a run's checkpoint tag (for "auto", the ensemble the pilot chose).
func (c Config) simKey(pivot string) string {
	return eval.SimKey{System: string(c.System), Res: c.Resolution, TimeSamples: c.TimeSamples, Pivot: pivot,
		PivotFrac: c.PivotDensity, FreeFrac: c.SubEnsembleDensity, Seed: c.Seed, Rank: c.Rank, Faults: c.Faults}.String()
}

// Fingerprint returns SimFingerprint, then every field that can change the
// decomposition: the seed (the accuracy sample and the kill lottery read
// it), rank, the method's canonical name, zero-join, the in-process shard
// count (w=0 for one shard, the unsharded call), accuracy (no sample size
// when skipped) and the shard count distnet runs. Parallel, Factored and
// Distributed.Workers change no bit and nothing here; factored=false stays
// a literal so stored identities still match. Shard counts fix summation
// orders, which agree to 1e-9, not bitwise, so w= and dist-shards= are in
// it; w=N and dist-shards=N are bit-identical but stay two identities, as
// the served result names its executor.
func (c Config) Fingerprint() string {
	cfg := c.normalize()
	method, shards, sample := cfg.Method, cfg.Workers, cfg.AccuracySampleSims
	if m, err := ParseMethod(string(method)); err == nil {
		method = m
	}
	if shards == 1 {
		shards = 0
	}
	if cfg.SkipAccuracy {
		sample = 0
	}
	fp := cfg.simKey(cfg.Pivot) + fmt.Sprintf("|full-v2|seed=%d|rank=%d|method=%s|zj=%t|w=%d|factored=false|acc=%t:%d",
		cfg.Seed, cfg.Rank, method, cfg.ZeroJoin, shards, cfg.SkipAccuracy, sample)
	if d := cfg.Distributed; d != nil {
		fp += fmt.Sprintf("|dist-shards=%d", distnet.ShardCount(d.Workers, d.Shards))
	}
	return fp
}
