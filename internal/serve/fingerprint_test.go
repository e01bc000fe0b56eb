package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	m2td "repro"
	"repro/api"
	"repro/internal/obs"
	"repro/internal/store"
)

// FuzzSubmitBody feeds arbitrary bytes to the submit path's decoder and
// config builder (submitRequest: decodeBody, then buildConfig), as a POST
// body. Neither may panic, and every input is either a campaign config
// inside the bounds buildConfig promises or an invalid_request — a 4xx,
// never a 5xx: nothing a client can send is the server's fault.
func FuzzSubmitBody(f *testing.F) {
	for _, body := range []string{
		`{"campaign":{}}`,
		`{"tenant":"t","priority":3,"campaign":{"system":"double-pendulum","resolution":12,"rank":4,"method":"select","pivot":"t","seed":1}}`,
		`{"campaign":{"system":"LORENZ","time_samples":7,"accuracy_sample_sims":10,"timeout_ms":5}}`,
		`{"campaign":{"pivot_density":0.5,"sub_density":0.25,"zero_join":true}}`,
		`{"campaign":{"distributed":{"workers":2,"shards":3}}}`,
		`{"campaign":{"distributed":{"workers":65}}}`,
		`{"campaign":{"distributed":{"shards":-1}}}`,
		`{"campaign":{"resolution":257}}`,
		`{"campaign":{"time_samples":257}}`,
		`{"campaign":{"accuracy_sample_sims":65537}}`,
		`{"campaign":{"resolution":-1,"rank":-2}}`,
		`{"campaign":{"pivot_density":1.5}}`,
		`{"campaign":{"method":"bogus"}}`,
		`{"campaign":{"system":"pendulum-of-doom"}}`,
		`{"campaign":{"sketch":0.1}}`, // a removed field
		`{"campaign":{"seed":99999999999999999999}}`,
		`{"campaign":{"resolution":"12"}}`,
		`{"campaign":null}`,
		`{"campaign":{}} trailing`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	s := fingerprintServer(f)

	f.Fuzz(func(t *testing.T, body []byte) {
		_, cfg, apiErr := s.submitRequest(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
		if apiErr != nil {
			if apiErr.Code != api.CodeInvalidRequest || api.HTTPStatus(apiErr.Code) >= 500 {
				t.Fatalf("body %q: error %s (HTTP %d), want invalid_request", body, apiErr.Code, api.HTTPStatus(apiErr.Code))
			}
			return
		}
		if err := checkBuilt(cfg); err != nil {
			t.Fatalf("body %q: built %+v: %v", body, cfg, err)
		}
	})
}

// checkBuilt is what buildConfig promises of every config it returns.
func checkBuilt(cfg m2td.Config) error {
	if _, err := m2td.ParseSystem(string(cfg.System)); cfg.System != "" && err != nil {
		return err
	}
	if _, err := m2td.ParseMethod(string(cfg.Method)); cfg.Method != "" && err != nil {
		return err
	}
	d := cfg.Distributed
	switch {
	case cfg.Resolution < 0 || cfg.Resolution > 256 || cfg.TimeSamples < 0 || cfg.TimeSamples > 256 || cfg.Rank < 0:
		return fmt.Errorf("sizes out of range")
	case !(cfg.PivotDensity >= 0 && cfg.PivotDensity <= 1 && cfg.SubEnsembleDensity >= 0 && cfg.SubEnsembleDensity <= 1):
		return fmt.Errorf("densities outside [0, 1]")
	case cfg.SkipAccuracy == (cfg.AccuracySampleSims > 0) || cfg.AccuracySampleSims < 0 || cfg.AccuracySampleSims > 65536:
		return fmt.Errorf("accuracy neither skipped nor sampled")
	case d != nil && (d.Workers < 1 || d.Workers > 64 || d.Shards < 0 || d.Shards > 1024 || d.KillWorkers != 0 || d.WorkDir != ""):
		return fmt.Errorf("distributed spec out of range")
	case !strings.HasPrefix(cfg.Fingerprint(), cfg.SimFingerprint()+"|"):
		return fmt.Errorf("fingerprint does not extend the sim fingerprint")
	}
	return nil
}

// canonicalConfig is the test's own normal form of a campaign: every field
// Config.Fingerprint may distinguish, with the engine defaults written out.
// It is deliberately a second spelling of m2td's normalisation — the
// fingerprint is checked against it, not against itself.
type canonicalConfig struct {
	System                  m2td.System
	Resolution, TimeSamples int
	Rank                    int
	Method                  m2td.Method
	Pivot                   string
	P, E                    float64
	ZeroJoin                bool
	Seed                    int64
	SkipAccuracy            bool
	AccuracySampleSims      int
	Shards                  int
}

func canonical(cfg m2td.Config) canonicalConfig {
	c := canonicalConfig{
		System: cfg.System, Resolution: cfg.Resolution, TimeSamples: cfg.TimeSamples, Rank: cfg.Rank,
		Method: cfg.Method, Pivot: cfg.Pivot, P: cfg.PivotDensity, E: cfg.SubEnsembleDensity,
		ZeroJoin: cfg.ZeroJoin, Seed: cfg.Seed,
		SkipAccuracy: cfg.SkipAccuracy, AccuracySampleSims: cfg.AccuracySampleSims,
	}
	if c.System == "" {
		c.System = m2td.SystemDoublePendulum
	}
	if c.Resolution == 0 {
		c.Resolution = 12
	}
	if c.TimeSamples == 0 {
		c.TimeSamples = c.Resolution
	}
	if c.Rank == 0 {
		c.Rank = 4
	}
	if c.Method == "" {
		c.Method = m2td.MethodSELECT
	}
	if c.Pivot == "" {
		c.Pivot = "t"
	}
	if c.P == 0 {
		c.P = 1
	}
	if c.E == 0 {
		c.E = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if d := cfg.Distributed; d != nil {
		c.Shards = max(d.Shards, 1)
		if d.Shards == 0 {
			c.Shards = max(d.Workers, 1)
		}
	}
	return c
}

func fingerprintServer(t testing.TB) *Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: st, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecSpellingsShareIdentity: the zero-valued and the
// explicitly-defaulted spelling of one campaign, and its aliases, collide on
// both levels of identity through buildConfig; a spec that differs in a
// decomposition field shares the ensemble and nothing else.
func TestSpecSpellingsShareIdentity(t *testing.T) {
	s := fingerprintServer(t)
	build := func(spec api.CampaignSpec) m2td.Config {
		t.Helper()
		cfg, err := s.buildConfig(spec)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	zero := build(api.CampaignSpec{})
	for name, spec := range map[string]api.CampaignSpec{
		"explicit defaults": {System: "double-pendulum", Resolution: 12, TimeSamples: 12, Rank: 4, Method: "select", Pivot: "t", PivotDensity: 1, SubEnsembleDensity: 1, Seed: 1},
		"aliases":           {System: "Double-Pendulum", Method: "M2TD-SELECT"},
		"skip spelled out":  {SkipAccuracy: true},
	} {
		if cfg := build(spec); cfg.Fingerprint() != zero.Fingerprint() || cfg.SimFingerprint() != zero.SimFingerprint() {
			t.Fatalf("%s:\n%q\n%q", name, cfg.Fingerprint(), zero.Fingerprint())
		}
	}
	for name, spec := range map[string]api.CampaignSpec{
		"rank":      {Rank: 2},
		"method":    {Method: "avg"},
		"zero-join": {ZeroJoin: true},
		"seed":      {Seed: 9},
		"dist":      {Distributed: &api.DistSpec{Workers: 2}},
	} {
		cfg := build(spec)
		if cfg.SimFingerprint() != zero.SimFingerprint() {
			t.Fatalf("%s moved the ensemble: %q", name, cfg.SimFingerprint())
		}
		if cfg.Fingerprint() == zero.Fingerprint() {
			t.Fatalf("%s did not move the campaign fingerprint", name)
		}
	}
	for name, spec := range map[string]api.CampaignSpec{
		"system":       {System: "lorenz"},
		"resolution":   {Resolution: 13},
		"time-samples": {TimeSamples: 5},
		"pivot":        {Pivot: "phi1"},
		"P":            {PivotDensity: 0.5},
		"E":            {SubEnsembleDensity: 0.5},
	} {
		if cfg := build(spec); cfg.SimFingerprint() == zero.SimFingerprint() {
			t.Fatalf("%s did not move the ensemble", name)
		}
	}
}

// FuzzCampaignSpecFingerprint feeds two api.CampaignSpec JSON bodies through
// the submit path's decode + buildConfig: neither may panic, the ensemble
// identity is a prefix of the campaign identity, and two specs collide on a
// fingerprint only when their normalised configs are equal — on the
// simulation-generating fields for SimFingerprint (with the rank under
// pivot "auto"), on all for Fingerprint.
func FuzzCampaignSpecFingerprint(f *testing.F) {
	f.Add(`{}`, `{"system":"double-pendulum","resolution":12,"rank":4,"method":"select","pivot":"t","seed":1}`)
	f.Add(`{"seed":2}`, `{"seed":3,"rank":2,"method":"avg"}`)
	f.Add(`{"pivot_density":0.5,"seed":2}`, `{"pivot_density":0.5,"seed":3}`)
	f.Add(`{"pivot":"auto"}`, `{"pivot":"auto","seed":4}`)
	f.Add(`{"pivot":"t\"|P=1"}`, `{"pivot":"t","sub_density":0.25,"zero_join":true}`)
	f.Add(`{"zero_join":true,"seed":1}`, `{"zero_join":true}`)
	f.Add(`{"distributed":{"workers":3}}`, `{"distributed":{"workers":2,"shards":3}}`)
	f.Add(`{"resolution":-1}`, `{"system":"LORENZ","time_samples":7,"accuracy_sample_sims":10}`)
	f.Add(`{"pivot":"auto","rank":1}`, `{"pivot":"auto","rank":2}`)
	s := fingerprintServer(f)

	f.Fuzz(func(t *testing.T, a, b string) {
		var cfgs [2]m2td.Config
		for i, body := range [2]string{a, b} {
			var spec api.CampaignSpec
			dec := json.NewDecoder(strings.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				return
			}
			cfg, err := s.buildConfig(spec)
			if err != nil {
				return
			}
			if full, sim := cfg.Fingerprint(), cfg.SimFingerprint(); !strings.HasPrefix(full, sim+"|") || full != cfg.Fingerprint() {
				t.Fatalf("fingerprint %q does not extend %q, or is unstable", full, sim)
			}
			cfgs[i] = cfg
		}
		ca, cb := canonical(cfgs[0]), canonical(cfgs[1])
		if cfgs[0].Fingerprint() == cfgs[1].Fingerprint() && ca != cb {
			t.Fatalf("two campaigns, one Fingerprint %q:\n%+v\n%+v", cfgs[0].Fingerprint(), ca, cb)
		}
		if ca == cb && cfgs[0].Fingerprint() != cfgs[1].Fingerprint() {
			t.Fatalf("one campaign, two Fingerprints:\n%q\n%q", cfgs[0].Fingerprint(), cfgs[1].Fingerprint())
		}
		if cfgs[0].SimFingerprint() == cfgs[1].SimFingerprint() {
			auto := ca.Pivot == "auto" // the pilot run reads the seed and the rank
			sampled := ca.P < 1 || ca.E < 1 || auto
			if ca.System != cb.System || ca.Resolution != cb.Resolution || ca.TimeSamples != cb.TimeSamples ||
				ca.Pivot != cb.Pivot || ca.P != cb.P || ca.E != cb.E || (sampled && ca.Seed != cb.Seed) ||
				(auto && ca.Rank != cb.Rank) {
				t.Fatalf("two ensembles, one SimFingerprint %q:\n%+v\n%+v", cfgs[0].SimFingerprint(), ca, cb)
			}
		}
	})
}
