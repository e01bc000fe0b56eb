// Command simgen runs the dynamical-system simulators directly: it dumps
// either a single trajectory or a sampled ensemble tensor as CSV/JSON for
// inspection and external tooling.
//
// Usage:
//
//	simgen -system lorenz -samples 20                 # reference trajectory
//	simgen -system double-pendulum -params 0.5,1,1,1  # specific parameters
//	simgen -system lorenz -ensemble -scheme random -budget 100 -res 8
//	simgen -ensemble -fault-rate 0.1 -timeout 30s     # resilience drill
//
// -timeout bounds the whole run with a deadline (Ctrl-C cancels too);
// the fan-out drains cooperatively instead of being killed mid-write.
// -fault-rate injects seeded transient simulation failures; each is
// retried at once, three attempts in all (faults.Run), and the fault/retry
// accounting is printed to stderr so the data stream on stdout stays clean.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/faults"
	"repro/internal/obs"
)

func main() {
	var (
		system   = flag.String("system", "double-pendulum", "system: double-pendulum, triple-pendulum, lorenz")
		params   = flag.String("params", "", "comma-separated parameter values (defaults to the reference setting)")
		samples  = flag.Int("samples", 16, "number of trajectory samples")
		format   = flag.String("format", "csv", "output format: csv or json")
		ensemble = flag.Bool("ensemble", false, "emit a sampled ensemble tensor instead of a trajectory")
		scheme   = flag.String("scheme", "random", "ensemble sampling scheme: random, grid, slice, lhs")
		budget   = flag.Int("budget", 64, "ensemble simulation budget")
		res      = flag.Int("res", 8, "ensemble grid resolution per parameter")
		seed     = flag.Int64("seed", 1, "sampling seed")
		timeout  = flag.Duration("timeout", 0, "overall deadline; the run drains cooperatively on expiry or Ctrl-C (0 = none)")
		faultRt  = flag.Float64("fault-rate", 0, "injected transient-failure rate per simulation (seeded, deterministic; retried at once, 3 attempts in all)")
		metrics  = flag.String("metrics-addr", "", "serve Prometheus /metrics, expvar /debug/vars, and /debug/pprof/ on this address (e.g. 127.0.0.1:0)")
	)
	flag.Parse()

	if *metrics != "" {
		srv, err := obs.ServeMetrics(*metrics, obs.Default)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "simgen: serving metrics on http://%s/metrics\n", srv.Addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sys, err := dynsys.ByName(*system)
	if err != nil {
		fatal(err)
	}
	var inj *faults.Injector
	if *faultRt > 0 {
		inj = faults.New(faults.Config{Seed: *seed, TransientRate: *faultRt})
	}
	if *ensemble {
		if err := dumpEnsemble(ctx, os.Stdout, sys, inj, *scheme, *budget, *res, *samples, *seed, *format); err != nil {
			fatal(err)
		}
	} else if err := dumpTrajectory(ctx, os.Stdout, sys, inj, *params, *samples, *format); err != nil {
		fatal(err)
	}
	if inj != nil {
		s := inj.Stats()
		fmt.Fprintf(os.Stderr, "simgen: faults: %d attempts, %d transient failures across %d sims (all retried)\n",
			s.Attempts, s.TransientFailures, s.TransientSims)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simgen:", err)
	os.Exit(1)
}

func dumpTrajectory(ctx context.Context, w io.Writer, sys dynsys.System, inj *faults.Injector, params string, samples int, format string) error {
	vals := dynsys.ReferenceParams(sys)
	if params != "" {
		parts := strings.Split(params, ",")
		if len(parts) != len(sys.Params()) {
			return fmt.Errorf("%s needs %d parameters, got %d", sys.Name(), len(sys.Params()), len(parts))
		}
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fmt.Errorf("bad parameter %q: %v", p, err)
			}
			vals[i] = v
		}
	}
	traj, err := trajectoryWithRetry(ctx, sys, inj, vals, samples)
	if err != nil {
		return err
	}
	switch format {
	case "json":
		return json.NewEncoder(w).Encode(map[string]interface{}{
			"system":     sys.Name(),
			"params":     vals,
			"trajectory": traj,
		})
	case "csv":
		cw := csv.NewWriter(w)
		header := []string{"sample"}
		for d := 0; d < sys.StateDim(); d++ {
			header = append(header, fmt.Sprintf("state%d", d))
		}
		if err := cw.Write(header); err != nil {
			return err
		}
		for i, st := range traj {
			row := []string{strconv.Itoa(i)}
			for _, v := range st {
				row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
	return fmt.Errorf("unknown format %q", format)
}

// trajectoryWithRetry runs one trajectory under faults.Run, so deadlines
// apply and the injector's (if any) transient failures are retried before
// the simulation runs. simgen injects transient failures only, so no
// attempt diverges.
func trajectoryWithRetry(ctx context.Context, sys dynsys.System, inj *faults.Injector, vals []float64, samples int) ([][]float64, error) {
	_, err := faults.Run(ctx, func() error {
		if inj == nil {
			return nil
		}
		_, err := inj.Inject(ctx, vals)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sys.Trajectory(vals, samples), nil
}

func dumpEnsemble(ctx context.Context, out io.Writer, sys dynsys.System, inj *faults.Injector, scheme string, budget, res, samples int, seed int64, format string) error {
	space := ensemble.NewSpace(sys, res, samples)
	sims, err := ensemble.Sample(space, scheme, budget, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	se, stats, err := ensemble.EncodeCtx(ctx, space, sims, ensemble.SimOptions{Faults: inj})
	if err != nil {
		return err
	}
	if stats.FailedSims > 0 || stats.QuarantinedCells > 0 || stats.RetriedSims > 0 {
		fmt.Fprintf(os.Stderr, "simgen: encode: %d executed, %d retried, %d failed sims; %d cells quarantined\n",
			stats.ExecutedSims, stats.RetriedSims, stats.FailedSims, stats.QuarantinedCells)
	}
	switch format {
	case "json":
		type cell struct {
			Index []int   `json:"index"`
			Value float64 `json:"value"`
		}
		var cells []cell
		se.Tensor.Each(func(idx []int, v float64) {
			cells = append(cells, cell{Index: append([]int(nil), idx...), Value: v})
		})
		return json.NewEncoder(out).Encode(map[string]interface{}{
			"system":  sys.Name(),
			"shape":   se.Tensor.Shape,
			"numSims": se.NumSims,
			"cells":   cells,
		})
	case "csv":
		w := csv.NewWriter(out)
		header := make([]string, 0, space.Order()+1)
		for m := 0; m < space.Order(); m++ {
			header = append(header, space.ModeName(m))
		}
		header = append(header, "value")
		if err := w.Write(header); err != nil {
			return err
		}
		var werr error
		se.Tensor.Each(func(idx []int, v float64) {
			if werr != nil {
				return
			}
			row := make([]string, 0, len(idx)+1)
			for _, i := range idx {
				row = append(row, strconv.Itoa(i))
			}
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
			werr = w.Write(row)
		})
		if werr != nil {
			return werr
		}
		w.Flush()
		return w.Error()
	}
	return fmt.Errorf("unknown format %q", format)
}
