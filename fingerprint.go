package m2td

import "fmt"

// A campaign has a two-level identity. SimFingerprint names the ENSEMBLE:
// the fields that decide which simulations run and what they output.
// Fingerprint names the CAMPAIGN: the ensemble plus every field that shapes
// the decomposition computed from it. Many campaigns share one ensemble — a
// rank sweep, the three fusion methods — and simulations are the budgeted
// resource, so whoever stores simulations (Config.CheckpointDir, the
// campaign server's sims-<hash>/ catalogs) keys them by the first and
// whoever stores decompositions by the second.

// SimFingerprint returns a stable identity string for the simulations a
// campaign runs: system, resolution, time samples, pivot, P, E and the
// fault-injection settings — and the seed only when it can change which
// simulations run: at P < 1 or E < 1 it draws the sampled sub-ensembles,
// and under Pivot "auto" it seeds the pilot run that picks the pivot. At
// P = E = 1 with a named pivot the partition draws nothing from the rng, so
// campaigns differing only in seed share an ensemble bit for bit.
//
// Two configs with equal SimFingerprints generate bit-identical partitions;
// rank, method, zero-join and the decomposition route never enter it.
func (c Config) SimFingerprint() string {
	cfg := c.normalize()
	return cfg.fingerprint(cfg.Pivot)
}

// fingerprint is SimFingerprint's formatter over a normalized config, with
// the pivot passed in: SimFingerprint passes Config.Pivot as written, and a
// run tags its checkpoint (partition.Checkpoint.Fingerprint) with the
// RESOLVED pivot's mode name — the same string for a named pivot, and for
// "auto" the identity of the ensemble the pilot run actually chose, which
// no longer depends on the seed at P = E = 1.
func (c Config) fingerprint(pivot string) string {
	fp := fmt.Sprintf("sim-v3|%s|res=%d|t=%d|pivot=%q|P=%g|E=%g",
		c.System, c.Resolution, c.TimeSamples, pivot, c.PivotDensity, c.SubEnsembleDensity)
	if c.PivotDensity < 1 || c.SubEnsembleDensity < 1 || pivot == "auto" {
		fp += fmt.Sprintf("|seed=%d", c.Seed)
	}
	return fp + c.faultsSuffix()
}

// Fingerprint returns a stable identity string for the FULL campaign
// configuration: SimFingerprint, then every field that can change the
// decomposition a run produces from that ensemble — the seed (it drives the
// sampled accuracy estimate and the kill lottery even when the ensemble
// ignores it), rank, method, zero-join, the in-process D-M2TD worker count,
// the Factored requirement, accuracy settings, and the distributed shard
// count. Fields that are bit-identical by contract (Parallel,
// Distributed.Workers at a fixed Shards) are deliberately excluded, so runs
// that must produce the same result share a fingerprint.
//
// The route fields w= and factored= belong to this half rather than to
// neither: the executors (in process, sharded) agree to 1e-9, not bitwise —
// each shard count fixes its own floating-point summation order — so two
// campaigns on different ones are different cached objects over one shared
// ensemble.
//
// The campaign server keys request coalescing and its decomposition cache
// on this value and its simulation catalog on the SimFingerprint prefix;
// callers should canonicalize free-form System/Method input (ParseSystem,
// ParseMethod) before fingerprinting so aliases collapse to one key.
func (c Config) Fingerprint() string {
	cfg := c.normalize()
	fp := cfg.fingerprint(cfg.Pivot) + fmt.Sprintf("|full-v2|seed=%d|rank=%d|method=%s|zj=%t|w=%d|factored=%t|acc=%t:%d",
		cfg.Seed, cfg.Rank, cfg.Method, cfg.ZeroJoin, cfg.Workers, cfg.Factored,
		cfg.SkipAccuracy, cfg.AccuracySampleSims)
	if d := cfg.Distributed; d != nil {
		shards := d.Shards
		if shards == 0 {
			shards = d.Workers
		}
		if shards < 1 {
			shards = 1
		}
		fp += fmt.Sprintf("|dist-shards=%d", shards)
	}
	return fp
}

// faultsSuffix is the fault-injection component of the simulation identity:
// injected faults change which simulations survive, so two configs
// differing only in Faults must never share an ensemble. It names only the
// fields that change a stored cell: latency delays a simulation and
// changes none, so LatencyRate and Latency stay out, and an injector with
// no transient, divergent or panic rate computes the clean cells and has
// the clean identity. The attempt count is the one faults.New runs (below
// 1 counts as 1), so two spellings of one injector are one ensemble.
func (c Config) faultsSuffix() string {
	f := c.Faults
	if f == nil || f.TransientRate == 0 && f.DivergentRate == 0 && f.PanicRate == 0 {
		return ""
	}
	return fmt.Sprintf("|faults=%d:%g:%d:%g:%g",
		f.Seed, f.TransientRate, max(f.TransientAttempts, 1), f.DivergentRate, f.PanicRate)
}
