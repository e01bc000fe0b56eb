package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each golden package under testdata/src/<name> carries positive cases
// (lines with `// want "re"` expectations), negative cases (conforming
// code with no expectation — any diagnostic there fails the test), a
// justified //lint:allow suppression, and — in the determinism package —
// directive-hygiene cases. The harness requires an exact bijection
// between diagnostics and expectations, so both firing and silence are
// asserted.

func TestDeterminismGolden(t *testing.T) {
	// The directory is named "tucker" so its import path ends in a
	// kernel-package name and opts into the determinism suffix rule —
	// including the hash-only tier, which bans the math/rand import
	// outright.
	linttest.Run(t, "tucker", lint.Determinism)
}

func TestDeterminismSeededTierGolden(t *testing.T) {
	// "ensemble" is deterministic but NOT hash-only: explicit seeded
	// generators stay legal there while the global source is banned.
	linttest.Run(t, "ensemble", lint.Determinism)
}

func TestCtxPropGolden(t *testing.T) {
	linttest.Run(t, "ctxprop", lint.CtxProp)
}

func TestFloatCmpGolden(t *testing.T) {
	linttest.Run(t, "floatcmp", lint.FloatCmp)
}

func TestAtomicStoreGolden(t *testing.T) {
	linttest.Run(t, "atomicstore", lint.AtomicStore)
}

func TestMetricHygieneGolden(t *testing.T) {
	linttest.Run(t, "metrichygiene", lint.MetricHygiene)
}
