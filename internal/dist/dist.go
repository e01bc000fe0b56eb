// Package dist is a shim over core.DecomposeFactored at Shards = Workers,
// the name the frozen benchmark driver (cmd/m2tdperf) compiles against.
// D-M2TD's phases all live in internal/core (Options.Shards) and, on worker
// processes, internal/distnet. The package goes when the driver is re-based
// onto core.Options.Shards.
package dist

import (
	"repro/internal/core"
	"repro/internal/partition"
)

// Options configures a distributed decomposition.
type Options struct {
	core.Options
	// Workers is the paper's server count: core.Options.Shards. Values
	// below 1 are treated as 1.
	Workers int
}

// Decompose is core.DecomposeFactored with Shards = opts.Workers.
func Decompose(p *partition.Result, opts Options) (*core.Result, error) {
	opts.Options.Shards = opts.Workers
	return core.DecomposeFactored(p, opts.Options)
}
