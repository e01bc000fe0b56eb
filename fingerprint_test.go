package m2td

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynsys"
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

// sameLevel is how much of a campaign two configs of a pair are known to
// share: nothing (a random pair), the ensemble (equal SimFingerprint
// required), or the whole campaign (equal Fingerprint required).
type sameLevel int

const (
	unknown sameLevel = iota
	sameEnsemble
	sameCampaign
)

// idPair is one pair of configs the identity property is checked on.
type idPair struct {
	how   string
	a, b  Config
	level sameLevel
}

// pick returns one of vals, uniformly.
func pick[T any](rng *rand.Rand, vals ...T) T { return vals[rng.Intn(len(vals))] }

// ownFaults gives c an injector of its own (a copy of the one it shares
// with the config it was copied from, or a zero one) and returns it.
func ownFaults(c *Config) *faults.Config {
	f := faults.Config{}
	if c.Faults != nil {
		f = *c.Faults
	}
	c.Faults = &f
	return &f
}

// idFields draws each field of a campaign at res ≤ 6, from domains small
// enough that two draws often agree. A random pair redraws one of them.
var idFields = []struct {
	name string
	draw func(*rand.Rand, *Config)
}{
	{"system", func(r *rand.Rand, c *Config) {
		c.System = pick(r, "", SystemDoublePendulum, SystemLorenz, SystemSEIR)
		if c.CheckPivot() != nil {
			c.Pivot = "t"
		}
	}},
	{"resolution", func(r *rand.Rand, c *Config) { c.Resolution = pick(r, 4, 5, 6) }},
	{"time-samples", func(r *rand.Rand, c *Config) { c.TimeSamples = pick(r, 0, 3, 5) }},
	{"rank", func(r *rand.Rand, c *Config) { c.Rank = pick(r, 0, 1, 2, 3) }},
	{"method", func(r *rand.Rand, c *Config) { c.Method = pick[Method](r, "", "avg", "concat", "select") }},
	{"pivot", func(r *rand.Rand, c *Config) {
		sys, err := dynsys.ByName(string(c.normalize().System))
		if err != nil {
			panic(err)
		}
		c.Pivot = pick(r, "", "t", "auto", "auto", sys.Params()[r.Intn(len(sys.Params()))].Name)
	}},
	{"P", func(r *rand.Rand, c *Config) { c.PivotDensity = pick(r, 0, 1, 0.5) }},
	{"E", func(r *rand.Rand, c *Config) { c.SubEnsembleDensity = pick(r, 0, 1, 0.6) }},
	{"zero-join", func(r *rand.Rand, c *Config) { c.ZeroJoin = r.Intn(2) == 0 }},
	{"workers", func(r *rand.Rand, c *Config) {
		if c.Workers = pick(r, 0, 0, 1, 2, 3); c.Workers > 0 {
			c.Factored = false
		}
	}},
	{"accuracy", func(r *rand.Rand, c *Config) {
		c.SkipAccuracy, c.AccuracySampleSims = r.Intn(4) != 0, pick(r, 0, 24)
	}},
	{"seed", func(r *rand.Rand, c *Config) { c.Seed = pick[int64](r, 0, 1, 2, 3) }},
	{"fault-seed", func(r *rand.Rand, c *Config) { ownFaults(c).Seed = pick[int64](r, 1, 2) }},
	{"transient-rate", func(r *rand.Rand, c *Config) { ownFaults(c).TransientRate = pick(r, 0, 0.3) }},
	{"transient-attempts", func(r *rand.Rand, c *Config) { ownFaults(c).TransientAttempts = r.Intn(6) }},
	{"divergent-rate", func(r *rand.Rand, c *Config) { ownFaults(c).DivergentRate = pick(r, 0, 0.1) }},
	{"panic-rate", func(r *rand.Rand, c *Config) { ownFaults(c).PanicRate = pick(r, 0, 0.05) }},
}

// drawConfig draws every field; half the campaigns have no injector.
func drawConfig(rng *rand.Rand) Config {
	var c Config
	for _, f := range idFields {
		f.draw(rng, &c)
	}
	if rng.Intn(2) == 0 {
		c.Faults = nil
	}
	return c
}

// methodSpellings lists every accepted spelling of each fusion method.
var methodSpellings = map[core.Method][]Method{
	core.AVG:    {"avg", "average", "m2td-avg", "M2TD-AVG", "Average", " avg "},
	core.CONCAT: {"concat", "concatenate", "m2td-concat", "M2TD-CONCAT", "CONCAT"},
	core.SELECT: {"", "select", "selection", "m2td-select", "M2TD-SELECT", "Select"},
}

// respellings are the known-equivalent spellings of a campaign: each
// rewrites c without changing what a run computes (sameCampaign) or which
// simulations it runs (sameEnsemble), or reports that it does not apply.
var respellings = []struct {
	name  string
	level sameLevel
	apply func(*rand.Rand, Config) (Config, bool)
}{
	{"zero-or-default", sameCampaign, func(r *rand.Rand, c Config) (Config, bool) {
		d := c.normalize()
		flip := func(zero bool, set, clear func()) {
			if r.Intn(2) == 0 {
				set()
			} else if zero {
				clear()
			}
		}
		flip(c.System == d.System, func() { c.System = d.System }, func() { c.System = "" })
		flip(c.TimeSamples == d.Resolution, func() { c.TimeSamples = d.TimeSamples }, func() { c.TimeSamples = 0 })
		flip(c.Rank == 4, func() { c.Rank = d.Rank }, func() { c.Rank = 0 })
		flip(c.Method == "select", func() { c.Method = d.Method }, func() { c.Method = "" })
		flip(c.Pivot == "t", func() { c.Pivot = d.Pivot }, func() { c.Pivot = "" })
		flip(c.PivotDensity == 1, func() { c.PivotDensity = d.PivotDensity }, func() { c.PivotDensity = 0 })
		flip(c.SubEnsembleDensity == 1, func() { c.SubEnsembleDensity = d.SubEnsembleDensity }, func() { c.SubEnsembleDensity = 0 })
		flip(c.Seed == 1, func() { c.Seed = d.Seed }, func() { c.Seed = 0 })
		return c, true
	}},
	{"method-alias", sameCampaign, func(r *rand.Rand, c Config) (Config, bool) {
		m, err := c.Method.core()
		if err != nil {
			return c, false
		}
		c.Method = pick(r, methodSpellings[m]...)
		return c, true
	}},
	{"workers-0-1", sameCampaign, func(r *rand.Rand, c Config) (Config, bool) {
		if c.Workers > 1 || c.Factored {
			return c, false
		}
		c.Workers = 1 - c.Workers
		return c, true
	}},
	{"factored", sameCampaign, func(r *rand.Rand, c Config) (Config, bool) {
		c.Factored = !c.Factored
		return c, c.Workers == 0
	}},
	{"parallel", sameCampaign, func(r *rand.Rand, c Config) (Config, bool) {
		c.Parallel = pick(r, 1, 2, 3)
		return c, true
	}},
	{"transient-attempts", sameCampaign, func(r *rand.Rand, c Config) (Config, bool) {
		if c.Faults == nil {
			return c, false
		}
		switch f := ownFaults(&c); {
		case f.TransientAttempts <= 1:
			f.TransientAttempts = pick(r, -1, 0, 1)
		case f.TransientAttempts >= faults.Attempts:
			f.TransientAttempts = faults.Attempts + r.Intn(3)
		default:
			return c, false
		}
		return c, true
	}},
	{"latency", sameCampaign, func(r *rand.Rand, c Config) (Config, bool) {
		f := ownFaults(&c)
		f.LatencyRate, f.Latency = pick(r, 0, 0.3, 1), pick(r, 0, time.Microsecond)
		return c, true
	}},
	{"zero-rate-injector", sameCampaign, func(r *rand.Rand, c Config) (Config, bool) {
		if f := c.Faults; f != nil && (f.TransientRate != 0 || f.DivergentRate != 0 || f.PanicRate != 0) {
			return c, false
		}
		if c.Faults != nil {
			c.Faults = nil
		} else {
			c.Faults = &faults.Config{Seed: pick[int64](r, 1, 7), TransientAttempts: r.Intn(4)}
		}
		return c, true
	}},
	{"accuracy-skipped", sameCampaign, func(r *rand.Rand, c Config) (Config, bool) {
		c.AccuracySampleSims = pick(r, 0, 24, 50)
		return c, c.SkipAccuracy
	}},
	{"seed-unsampled", sameEnsemble, func(r *rand.Rand, c Config) (Config, bool) {
		d := c.normalize()
		c.Seed = d.Seed + 1 + r.Int63n(5)
		return c, d.PivotDensity == 1 && d.SubEnsembleDensity == 1 && d.Pivot != "auto"
	}},
}

// identityPairs draws the property's pairs from seed: perRespelling pairs of
// each known-equivalent spelling and perField random pairs that redraw each
// field of idFields.
func identityPairs(seed int64, perRespelling, perField int) []idPair {
	rng := rand.New(rand.NewSource(seed))
	var pairs []idPair
	for _, rs := range respellings {
		for n := 0; n < perRespelling; {
			a := drawConfig(rng)
			if b, ok := rs.apply(rng, a); ok {
				pairs = append(pairs, idPair{rs.name, a, b, rs.level})
				n++
			}
		}
	}
	for _, f := range idFields {
		for n := 0; n < perField; n++ {
			a := drawConfig(rng)
			b := a
			f.draw(rng, &b)
			pairs = append(pairs, idPair{"random " + f.name, a, b, unknown})
		}
	}
	return pairs
}

// sameBits reports whether two float slices are equal to the last bit.
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

// sameCampaignBits reports whether two reports hold bit-identical cores,
// factors and accuracies.
func sameCampaignBits(a, b *Report) bool {
	x, y := a.Decomposition, b.Decomposition
	if !sameBits(x.Core.Data, y.Core.Data) || len(x.Factors) != len(y.Factors) ||
		!sameBits([]float64{a.Accuracy}, []float64{b.Accuracy}) {
		return false
	}
	for m := range x.Factors {
		if !sameBits(x.Factors[m].Data, y.Factors[m].Data) {
			return false
		}
	}
	return true
}

// TestRunIdentityIsBitIdentity is the differential property every store of
// simulations (checkpoints, the campaign server's sims- catalogs) and of
// decompositions (its cache and dec- objects) leans on. Over seeded pairs of
// campaigns at res ≤ 6 — known-equivalent spellings and random pairs that
// redraw one field — it requires that
//
//   - equal SimFingerprints mean bit-identical partitions,
//   - equal Fingerprints mean bit-identical cores, factors and accuracies,
//   - every known-equivalent pair has equal identities at its level.
//
// A pair whose identities differ and is not known-equivalent says nothing,
// so it is not run. One split is allowed: Workers N and Distributed{Shards:
// N} compute the same bits, but the served result names its executor, so
// their Fingerprints differ; the last pair checks that split.
func TestRunIdentityIsBitIdentity(t *testing.T) {
	run := func(c Config) *Report {
		t.Helper()
		report, err := RunCtx(context.Background(), c)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		return report
	}
	runs, collisions := 0, 0
	for i, p := range identityPairs(57, 6, 6) {
		simA, simB := p.a.SimFingerprint(), p.b.SimFingerprint()
		fullA, fullB := p.a.Fingerprint(), p.b.Fingerprint()
		for _, c := range [][2]string{{simA, fullA}, {simB, fullB}} {
			if !strings.HasPrefix(c[1], c[0]+"|") {
				t.Fatalf("pair %d: Fingerprint %q does not extend SimFingerprint %q", i, c[1], c[0])
			}
		}
		switch {
		case p.level == sameEnsemble && simA != simB:
			t.Errorf("pair %d (%s): one ensemble, two SimFingerprints:\n%q\n%q", i, p.how, simA, simB)
		case p.level == sameCampaign && fullA != fullB:
			t.Errorf("pair %d (%s): one campaign, two Fingerprints:\n%q\n%q", i, p.how, fullA, fullB)
		}
		if simA != simB {
			continue
		}
		ra, rb := run(p.a), run(p.b)
		runs += 2
		if p.level == unknown && fullA == fullB {
			collisions++
		}
		if !samePartitionBits(ra.Partition, rb.Partition) {
			t.Errorf("pair %d (%s): SimFingerprint %q, two partitions", i, p.how, simA)
		} else if fullA == fullB && !sameCampaignBits(ra, rb) {
			t.Errorf("pair %d (%s): Fingerprint %q, two decompositions", i, p.how, fullA)
		}
	}
	t.Logf("%d runs; %d random pairs with one Fingerprint", runs, collisions)

	inProcess := Config{System: SystemLorenz, Resolution: 5, Rank: 2, SkipAccuracy: true, Workers: 3}
	onWorkers := inProcess
	onWorkers.Workers, onWorkers.Distributed = 0, &DistributedConfig{Workers: 1, Shards: 3}
	if inProcess.SimFingerprint() != onWorkers.SimFingerprint() {
		t.Fatal("the executor changed the SimFingerprint")
	}
	if got, want := onWorkers.Fingerprint(), strings.Replace(inProcess.Fingerprint(), "|w=3|", "|w=0|", 1)+"|dist-shards=3"; got != want {
		t.Fatalf("Distributed Fingerprint %q, want %q", got, want)
	}
	if !sameCampaignBits(run(inProcess), run(onWorkers)) {
		t.Fatal("Workers 3 and Distributed{Shards: 3} decompose to different bits")
	}
}
