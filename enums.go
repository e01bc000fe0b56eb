package m2td

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dynsys"
)

// System is a typed identifier for one of the built-in dynamical systems.
//
// Config.System holds this type; untyped string literals keep assigning to
// it unchanged ("double-pendulum" still compiles), so the typed API is a
// drop-in for existing callers. Use ParseSystem to validate free-form
// input (CLI flags, config files) eagerly instead of at run time.
type System string

// The built-in dynamical systems (internal/dynsys).
const (
	SystemDoublePendulum System = "double-pendulum"
	SystemTriplePendulum System = "triple-pendulum"
	SystemLorenz         System = "lorenz"
	SystemSEIR           System = "seir"
)

// String returns the canonical system name.
func (s System) String() string { return string(s) }

// Valid reports whether the system names a built-in dynamical system.
func (s System) Valid() bool {
	_, err := dynsys.ByName(string(s))
	return err == nil
}

// ParseSystem maps a free-form system name (case-insensitive) to its
// typed identifier, validating it against the built-in systems.
func ParseSystem(name string) (System, error) {
	s := System(strings.ToLower(strings.TrimSpace(name)))
	if !s.Valid() {
		return "", fmt.Errorf("m2td: unknown system %q (want one of %s)", name, strings.Join(Systems(), ", "))
	}
	return s, nil
}

// Method is a typed identifier for the M2TD pivot-factor fusion strategy.
//
// Config.Method holds this type; untyped string literals ("select", …)
// keep assigning to it unchanged. ParseMethod accepts the historical
// aliases ("average", "M2TD-SELECT", …) case-insensitively.
type Method string

// The three fusion strategies of the paper's Section VI.
const (
	MethodAVG    Method = "avg"
	MethodCONCAT Method = "concat"
	MethodSELECT Method = "select"
)

// String returns the canonical (lower-case) method name.
func (m Method) String() string { return string(m) }

// core maps the method (including aliases, case-insensitively) to the
// internal core.Method constant.
func (m Method) core() (core.Method, error) {
	switch strings.ToLower(strings.TrimSpace(string(m))) {
	case "avg", "average", "m2td-avg":
		return core.AVG, nil
	case "concat", "concatenate", "m2td-concat":
		return core.CONCAT, nil
	case "select", "selection", "m2td-select":
		return core.SELECT, nil
	}
	return "", fmt.Errorf("m2td: unknown method %q (want avg, concat, or select)", string(m))
}

// ParseMethod maps a free-form method name — canonical names, long forms,
// or the paper's "M2TD-*" spellings, case-insensitively — to its canonical
// typed identifier.
func ParseMethod(name string) (Method, error) {
	cm, err := Method(name).core()
	if err != nil {
		return "", err
	}
	switch cm {
	case core.AVG:
		return MethodAVG, nil
	case core.CONCAT:
		return MethodCONCAT, nil
	default:
		return MethodSELECT, nil
	}
}
