package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stitch"
	"repro/internal/tucker"
)

// TestRunComparisonRouteParity holds the paper's tables to the route they
// used to take: over {join, zero-join} × {NoiseFrac 0, 0.1} at res 8, the
// M2TD rows RunComparison computes through core's dispatch rule (join-free
// on these intact partitions) score within 1e-9 of the materialised
// decomposition of the same inputs, EnsembleNNZ is the stitched join's NNZ
// — under both scorers — and the sampled scorer orders the schemes as the
// exact one does wherever the exact gap is not a near-tie.
func TestRunComparisonRouteParity(t *testing.T) {
	for _, zeroJoin := range []bool{false, true} {
		for _, noise := range []float64{0, 0.1} {
			cfg := DefaultConfig("double-pendulum")
			cfg.Res, cfg.TimeSamples, cfg.Rank = 8, 6, 2
			cfg.FreeFrac, cfg.ZeroJoin, cfg.NoiseFrac = 0.5, zeroJoin, noise
			name := fmt.Sprintf("zero=%t/noise=%g", zeroJoin, noise)

			exact, err := RunComparison(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sampledCfg := cfg
			sampledCfg.EstimateSims = 1500
			sampled, err := RunComparison(context.Background(), sampledCfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			// The materialised route on the inputs RunComparison builds.
			space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
			if err != nil {
				t.Fatal(err)
			}
			part, err := cfg.generate(context.Background(), space)
			if err != nil {
				t.Fatal(err)
			}
			if noise > 0 {
				rng := rand.New(rand.NewSource(cfg.Seed + 7))
				AddNoise(part.Sub1.Tensor, noise, rng)
				AddNoise(part.Sub2.Tensor, noise, rng)
			}
			joinNNZ := stitch.Join(part).NNZ()
			if zeroJoin {
				joinNNZ = stitch.ZeroJoin(part).NNZ()
			}
			for _, method := range core.Methods() {
				want, err := core.DecomposeCtx(context.Background(), part, core.Options{
					Method: method, Ranks: tucker.UniformRanks(space.Order(), cfg.Rank), ZeroJoin: zeroJoin,
				})
				if err != nil {
					t.Fatal(err)
				}
				wantAcc := Accuracy(want.Reconstruct(), space.GroundTruth())
				got, _ := exact.Get(Scheme(method))
				if math.Abs(got.Accuracy-wantAcc) > 1e-9 {
					t.Errorf("%s/%s: accuracy %v, materialised route %v", name, method, got.Accuracy, wantAcc)
				}
				est, _ := sampled.Get(Scheme(method))
				if got.EnsembleNNZ != joinNNZ || est.EnsembleNNZ != joinNNZ {
					t.Errorf("%s/%s: EnsembleNNZ exact %d, sampled %d, stitched join %d", name, method, got.EnsembleNNZ, est.EnsembleNNZ, joinNNZ)
				}
			}

			for _, a := range paperSchemes {
				for _, b := range paperSchemes {
					ea, _ := exact.Get(a)
					eb, _ := exact.Get(b)
					sa, _ := sampled.Get(a)
					sb, _ := sampled.Get(b)
					if ea.Accuracy-eb.Accuracy > 0.02 && sa.Accuracy <= sb.Accuracy {
						t.Errorf("%s: exact ranks %s (%v) above %s (%v), sampled %v vs %v", name, a, ea.Accuracy, b, eb.Accuracy, sa.Accuracy, sb.Accuracy)
					}
				}
			}
		}
	}
}
