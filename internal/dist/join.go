package dist

import (
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/partition"
)

// FuseFactors fuses Phase 1's per-sub-tensor outputs into the full
// factor list (Algorithm 6 line "fuse pivot factors"): pivot-mode
// factors are fused per the method (core.FusePivot) and each side's
// free-mode factors are taken as-is. sub1F/sub2F and sub1G/sub2G are each
// sub-tensor's per-sub-local-mode factor and Gram matrices; ranks are the
// full-space clipped ranks (CONCAT's re-solve needs them).
func FuseFactors(method core.Method, cfg partition.Config, order int, ranks []int, sub1F, sub1G, sub2F, sub2G []*mat.Matrix) []*mat.Matrix {
	k := len(cfg.Pivots)
	factors := make([]*mat.Matrix, order)
	for i, m := range cfg.Pivots {
		factors[m] = core.FusePivot(method, ranks[m], sub1F[i], sub1G[i], sub2F[i], sub2G[i])
	}
	for i, m := range cfg.Free1 {
		factors[m] = sub1F[k+i]
	}
	for i, m := range cfg.Free2 {
		factors[m] = sub2F[k+i]
	}
	return factors
}
