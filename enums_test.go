package m2td

import (
	"context"
	"testing"
)

func TestParseSystemRoundTrip(t *testing.T) {
	for _, name := range Systems() {
		s := System(name)
		got, err := ParseSystem(s.String())
		if err != nil {
			t.Errorf("ParseSystem(%q): %v", s, err)
		}
		if got != s {
			t.Errorf("ParseSystem(%q) = %q, want identity", s, got)
		}
		if !s.Valid() {
			t.Errorf("%q.Valid() = false", s)
		}
	}
}

func TestParseSystemNormalizes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want System
	}{
		{"LORENZ", SystemLorenz},
		{"  lorenz ", SystemLorenz},
		{"Double-Pendulum", SystemDoublePendulum},
		{"seir", SystemSEIR},
	} {
		got, err := ParseSystem(tc.in)
		if err != nil {
			t.Errorf("ParseSystem(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSystem(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "pendulum", "lorenz96"} {
		if got, err := ParseSystem(bad); err == nil {
			t.Errorf("ParseSystem(%q) = %q, want error", bad, got)
		}
	}
	if System("bogus").Valid() {
		t.Error(`System("bogus").Valid() = true`)
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range []Method{MethodAVG, MethodCONCAT, MethodSELECT} {
		got, err := ParseMethod(m.String())
		if err != nil {
			t.Errorf("ParseMethod(%q): %v", m, err)
		}
		if got != m {
			t.Errorf("ParseMethod(%q) = %q, want identity", m, got)
		}
	}
}

// TestParseMethodAliases covers the historical spellings the string API
// accepted: long forms and the paper's "M2TD-*" names, case-insensitive.
func TestParseMethodAliases(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Method
	}{
		{"AVG", MethodAVG},
		{"average", MethodAVG},
		{"M2TD-AVG", MethodAVG},
		{"concatenate", MethodCONCAT},
		{"m2td-concat", MethodCONCAT},
		{"Selection", MethodSELECT},
		{"M2TD-SELECT", MethodSELECT},
		{" select ", MethodSELECT},
	} {
		got, err := ParseMethod(tc.in)
		if err != nil {
			t.Errorf("ParseMethod(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseMethod(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "mean", "svd"} {
		if got, err := ParseMethod(bad); err == nil {
			t.Errorf("ParseMethod(%q) = %q, want error", bad, got)
		}
	}
}

// TestEnumLiteralCompatibility locks in the migration promise: untyped
// string literals assign to the typed fields and still run.
func TestEnumLiteralCompatibility(t *testing.T) {
	cfg := Config{
		System:       "lorenz",   // untyped literal → System
		Method:       "M2TD-AVG", // historical alias → Method
		Resolution:   5,
		TimeSamples:  4,
		Rank:         2,
		Seed:         3,
		SkipAccuracy: true,
	}
	if _, err := RunCtx(context.Background(), cfg); err != nil {
		t.Fatalf("string-literal config: %v", err)
	}
}
