// Paper-scale run: the evaluation in the paper uses per-mode resolutions
// of 60–80, where the full simulation-space tensor holds 10⁸–10⁹ cells
// (25–105 GB) and the join tensor over a billion cells — the reason the
// authors needed an 18-node Hadoop cluster and the reason this
// reproduction's default tables run scaled down.
//
// Two exact/consistent reformulations remove both gates on a laptop:
//
//   - the factored core G = ½(G₁⊗s₂ + G₂⊗s₁) (core.DecomposeFactored)
//     projects the sub-tensors instead of materialising the join, and
//   - sampled-fiber accuracy estimation (eval.EstimateAccuracy) replaces
//     the full ground-truth tensor.
//
// This example runs the paper's exact configuration — double pendulum,
// resolution 70, rank 10, pivot t — end to end.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	m2td "repro"
)

func main() {
	const res = 70 // the paper's Table II middle resolution
	cfg := m2td.Config{
		System:             "double-pendulum",
		Resolution:         res,
		Rank:               10, // the paper's middle rank
		Method:             "select",
		AccuracySampleSims: 3000,
	}

	fmt.Printf("Running M2TD-SELECT at paper scale: resolution %d (full space %d cells)\n",
		res, res*res*res*res*res)
	start := time.Now()
	report, err := m2td.RunCtx(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  simulations run:        %d (2·%d²)\n", report.NumSims, res)
	fmt.Printf("  simulation time:        %v\n", report.SimTime.Round(time.Millisecond))
	fmt.Printf("  decomposition time:     %v\n", report.DecompTime.Round(time.Millisecond))
	fmt.Printf("  estimated accuracy:     %.4f (from %d sampled fibers)\n",
		report.Accuracy, cfg.AccuracySampleSims)
	fmt.Printf("  total wall clock:       %v\n", time.Since(start).Round(time.Millisecond))

	baseline, err := m2td.BaselineCtx(context.Background(), m2td.Config{
		System:             "double-pendulum",
		Resolution:         res,
		Rank:               10,
		AccuracySampleSims: 3000,
	}, "random", report.NumSims)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRandom sampling, same %d-simulation budget: estimated accuracy %.2e\n",
		baseline.NumSims, baseline.Accuracy)
	fmt.Println("\nThe join tensor this run avoided materialising would have held")
	fmt.Printf("%d cells (~%.0f GB in COO form).\n",
		res*res*res*res*res, float64(res*res*res*res*res)*48/1e9)
}
