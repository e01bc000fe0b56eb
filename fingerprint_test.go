package m2td

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/partition"
)

// samePartitionBits reports whether two partitions hold bit-identical
// sub-tensors: shapes, index blocks and cell values.
func samePartitionBits(a, b *partition.Result) bool {
	for _, pair := range [][2]*partition.SubEnsemble{{a.Sub1, b.Sub1}, {a.Sub2, b.Sub2}} {
		x, y := pair[0].Tensor, pair[1].Tensor
		if !reflect.DeepEqual(x.Shape, y.Shape) || !reflect.DeepEqual(x.Idx, y.Idx) || len(x.Vals) != len(y.Vals) {
			return false
		}
		for i := range x.Vals {
			if math.Float64bits(x.Vals[i]) != math.Float64bits(y.Vals[i]) {
				return false
			}
		}
	}
	return true
}

// TestFingerprintsAreTheParents pins both identity strings for the three
// executors. The decomposition half is the literal the build before the
// sketch route's removal printed. The simulation half is not the parents':
// its version moved to sim-v3 when the double pendulum's derivative went
// from four trigonometric calls to two and its cells changed in their last
// bits, so a sims- catalog or checkpoint of the old kernel's cells is not
// addressable under the new identity.
func TestFingerprintsAreTheParents(t *testing.T) {
	const sim = `sim-v3|double-pendulum|res=12|t=12|pivot="t"|P=1|E=1`
	for name, row := range map[string]struct {
		cfg  Config
		full string
	}{
		"default":     {Config{}, sim + `|full-v2|seed=1|rank=4|method=select|zj=false|w=0|factored=false|acc=false:0`},
		"Workers":     {Config{Workers: 4}, sim + `|full-v2|seed=1|rank=4|method=select|zj=false|w=4|factored=false|acc=false:0`},
		"Distributed": {Config{Distributed: &DistributedConfig{Shards: 4}}, sim + `|full-v2|seed=1|rank=4|method=select|zj=false|w=0|factored=false|acc=false:0|dist-shards=4`},
	} {
		if got := row.cfg.SimFingerprint(); got != sim {
			t.Errorf("%s: SimFingerprint %q, want %q", name, got, sim)
		}
		if got := row.cfg.Fingerprint(); got != row.full {
			t.Errorf("%s: Fingerprint %q, want %q", name, got, row.full)
		}
	}
}

// TestSimFingerprintIsEnsembleIdentity is the property the checkpoint
// catalog and the campaign server both lean on: equal SimFingerprints mean
// bit-identical partitions, and a change to any simulation-generating field
// means a different string. Each row names the ensemble it belongs to; rows
// of one ensemble differ only in decomposition fields, seed at P = E = 1,
// the spelling of a default, or an injector that changes no cell (no
// transient, divergent or panic rate).
func TestSimFingerprintIsEnsembleIdentity(t *testing.T) {
	base := Config{System: SystemDoublePendulum, Resolution: 4, TimeSamples: 3, SkipAccuracy: true}
	with := func(mut func(*Config)) Config {
		c := base
		mut(&c)
		return c
	}
	rows := []struct {
		ensemble string
		cfg      Config
	}{
		{"base", base},
		{"base", with(func(c *Config) { c.Seed = 2 })},
		{"base", with(func(c *Config) { c.Rank = 3 })},
		{"base", with(func(c *Config) { c.Method = MethodAVG })},
		{"base", with(func(c *Config) { c.ZeroJoin = true })},
		{"base", with(func(c *Config) { c.Workers = 2 })},
		{"base", with(func(c *Config) { c.Factored = true })},
		{"base", with(func(c *Config) { c.Parallel = 1 })},
		{"base", with(func(c *Config) {
			c.Rank, c.Method, c.Pivot, c.PivotDensity, c.SubEnsembleDensity, c.Seed = 4, MethodSELECT, "t", 1, 1, 1
		})},
		{"system", with(func(c *Config) { c.System = SystemLorenz })},
		{"resolution", with(func(c *Config) { c.Resolution = 5 })},
		{"time-samples", with(func(c *Config) { c.TimeSamples = 4 })},
		{"pivot", with(func(c *Config) { c.Pivot = "phi1" })},
		{"base", with(func(c *Config) { c.Faults = &faults.Config{Seed: 1} })},
		{"base", with(func(c *Config) { c.Faults = &faults.Config{Seed: 1, LatencyRate: 0.5, Latency: time.Microsecond} })},
		{"transient", with(func(c *Config) { c.Faults = &faults.Config{Seed: 1, TransientRate: 0.1} })},
		{"transient", with(func(c *Config) { c.Faults = &faults.Config{Seed: 1, TransientRate: 0.1, TransientAttempts: 1} })},
		{"transient", with(func(c *Config) {
			c.Faults = &faults.Config{Seed: 1, TransientRate: 0.1, LatencyRate: 0.5, Latency: time.Microsecond}
		})},
		{"P/seed1", with(func(c *Config) { c.PivotDensity = 0.5 })},
		{"P/seed1", with(func(c *Config) { c.PivotDensity, c.Rank = 0.5, 3 })},
		{"P/seed2", with(func(c *Config) { c.PivotDensity, c.Seed = 0.5, 2 })},
		{"E/seed1", with(func(c *Config) { c.SubEnsembleDensity = 0.5 })},
		{"E/seed2", with(func(c *Config) { c.SubEnsembleDensity, c.Seed = 0.5, 2 })},
		{"auto/seed1", with(func(c *Config) { c.Pivot = "auto" })},
		{"auto/seed1", with(func(c *Config) { c.Pivot, c.Method = "auto", MethodCONCAT })},
		{"auto/seed2", with(func(c *Config) { c.Pivot, c.Seed = "auto", 2 })},
	}

	ensembleOf := map[string]string{}       // SimFingerprint → ensemble
	first := map[string]*partition.Result{} // ensemble → its first row's partition
	fingerprintOf := map[string]string{}    // ensemble → SimFingerprint
	for i, row := range rows {
		fp := row.cfg.SimFingerprint()
		if seen, ok := ensembleOf[fp]; ok && seen != row.ensemble {
			t.Fatalf("row %d: ensembles %q and %q share SimFingerprint %q", i, seen, row.ensemble, fp)
		}
		if want, ok := fingerprintOf[row.ensemble]; ok && want != fp {
			t.Fatalf("row %d: ensemble %q has two SimFingerprints:\n%q\n%q", i, row.ensemble, want, fp)
		}
		ensembleOf[fp], fingerprintOf[row.ensemble] = row.ensemble, fp

		keepsSeed := strings.Contains(fp, "|seed=")
		if sampled := row.cfg.PivotDensity == 0.5 || row.cfg.SubEnsembleDensity == 0.5 || row.cfg.Pivot == "auto"; keepsSeed != sampled {
			t.Fatalf("row %d: seed in SimFingerprint = %t, want %t: %q", i, keepsSeed, sampled, fp)
		}
		if full := row.cfg.Fingerprint(); !strings.HasPrefix(full, fp+"|") {
			t.Fatalf("row %d: Fingerprint %q does not extend SimFingerprint %q", i, full, fp)
		}

		report, err := RunCtx(context.Background(), row.cfg)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if ref, ok := first[row.ensemble]; !ok {
			first[row.ensemble] = report.Partition
		} else if !samePartitionBits(report.Partition, ref) {
			t.Fatalf("row %d: equal SimFingerprint %q, different partition bits", i, fp)
		}
	}

	// The decomposition half separates what the ensemble half shares.
	for name, mut := range map[string]func(*Config){
		"rank":      func(c *Config) { c.Rank = 3 },
		"method":    func(c *Config) { c.Method = MethodAVG },
		"zero-join": func(c *Config) { c.ZeroJoin = true },
		"seed":      func(c *Config) { c.Seed = 2 },
	} {
		c := with(mut)
		if c.SimFingerprint() != base.SimFingerprint() {
			t.Fatalf("%s changed the SimFingerprint", name)
		}
		if c.Fingerprint() == base.Fingerprint() {
			t.Fatalf("%s did not change the Fingerprint", name)
		}
	}
}
