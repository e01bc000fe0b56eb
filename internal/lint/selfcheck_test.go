package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// TestSuiteComplete pins the analyzer roster: a rule silently dropped
// from lint.All would leave TestRepoIsClean green while enforcing
// nothing. The list is the contract — extend it when a PR adds a rule.
func TestSuiteComplete(t *testing.T) {
	want := []string{
		"determinism", "ctxprop", "floatcmp", "atomicstore",
		"metrichygiene",
	}
	if len(lint.All) != len(want) {
		t.Fatalf("lint.All has %d analyzers, want %d", len(lint.All), len(want))
	}
	for i, name := range want {
		if lint.All[i].Name != name {
			t.Errorf("lint.All[%d] = %q, want %q", i, lint.All[i].Name, name)
		}
		if lint.ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
}

// TestRepoIsClean is the acceptance gate: the full analyzer suite over
// the whole module must produce zero findings. This is the in-process
// equivalent of `go run ./cmd/m2tdlint ./...` exiting 0, so a violation
// introduced anywhere in the tree (e.g. a stray time.Now() in
// internal/tucker) fails `go test ./...` as well as the CI lint job.
//
// Note that ./... does not match the golden packages — Go tooling skips
// testdata directories in wildcard expansion — so their deliberate
// violations stay confined to the golden tests above.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint in -short mode")
	}
	root, err := lint.ModuleRoot("")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader matched no packages")
	}
	diags := lint.RunPackages(pkgs, lint.All)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
