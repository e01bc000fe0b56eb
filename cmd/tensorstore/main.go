// Command tensorstore manages an on-disk catalog of ensemble tensors and
// Tucker decompositions (the block-based store of internal/store), hosts
// that catalog as a long-running campaign server, and talks to a running
// server through the typed /v1/ API.
//
// Catalog usage:
//
//	tensorstore -dir ./tensors put -name ens -system lorenz -res 8 -budget 100
//	tensorstore -dir ./tensors ls
//	tensorstore -dir ./tensors info -name ens
//	tensorstore -dir ./tensors decompose -name ens -rank 3 -out ens-dec
//	tensorstore -dir ./tensors dump -name ens | head
//	tensorstore -dir ./tensors rm -name ens
//	tensorstore -dir ./tensors import -name x -shape 4,4,4 < cells.csv
//
// Server usage:
//
//	tensorstore -dir ./tensors serve -addr 127.0.0.1:8642
//
// Client usage (against a running server):
//
//	tensorstore submit -addr http://127.0.0.1:8642 -system lorenz -res 8 -rank 3 -wait
//	tensorstore status -addr http://127.0.0.1:8642 -job j1
//	tensorstore result -addr http://127.0.0.1:8642 -job j1
//	tensorstore predict -addr http://127.0.0.1:8642 -job j1 -params 0.5,1.0,2.0
//	tensorstore jobs -addr http://127.0.0.1:8642
//	tensorstore stats -addr http://127.0.0.1:8642
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	m2td "repro"
	"repro/api"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tensor"
)

func main() {
	m2td.MaybeDistWorker()
	dir := flag.String("dir", "./tensors", "store directory")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cmd, rest := args[0], args[1:]

	// Client commands talk to a remote server and never open the store.
	switch cmd {
	case "submit", "status", "result", "predict", "jobs", "stats":
		if err := clientCmd(cmd, rest); err != nil {
			fatal(err)
		}
		return
	}

	st, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}
	switch cmd {
	case "put":
		err = put(st, rest)
	case "import":
		err = importCmd(st, rest, os.Stdin)
	case "ls":
		err = ls(st)
	case "info":
		err = info(st, rest)
	case "dump":
		err = dump(st, rest)
	case "decompose":
		err = decompose(st, rest)
	case "rm":
		err = rm(st, rest)
	case "serve":
		err = serveCmd(st, rest)
	default:
		usage()
	}
	if err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tensorstore [-dir DIR] {put|import|ls|info|dump|decompose|rm|serve|submit|status|result|predict|jobs|stats} [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tensorstore:", err)
	os.Exit(1)
}

func put(st *store.Store, args []string) error {
	fs := flag.NewFlagSet("put", flag.ExitOnError)
	name := fs.String("name", "", "object name (required)")
	system := fs.String("system", "double-pendulum", "dynamical system")
	res := fs.Int("res", 8, "grid resolution per parameter")
	samples := fs.Int("samples", 8, "time samples")
	scheme := fs.String("scheme", "random", "sampling scheme: random, grid, slice, lhs")
	budget := fs.Int("budget", 64, "simulation budget")
	seed := fs.Int64("seed", 1, "sampling seed; a seed always samples the same simulations, the ones simgen -ensemble and a baseline campaign sample for it")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("put: -name is required")
	}
	sys, err := dynsys.ByName(*system)
	if err != nil {
		return err
	}
	space := ensemble.NewSpace(sys, *res, *samples)
	sims, err := ensemble.Sample(space, *scheme, *budget, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return fmt.Errorf("put: %w", err)
	}
	se, _, err := ensemble.EncodeCtx(context.Background(), space, sims, ensemble.SimOptions{})
	if err != nil {
		return err
	}
	if err := st.SaveSparse(*name, se.Tensor); err != nil {
		return err
	}
	fmt.Printf("stored %q: %s ensemble, %d sims, %d cells\n", *name, *system, se.NumSims, se.Tensor.NNZ())
	return nil
}

func ls(st *store.Store) error {
	names, err := st.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		fmt.Println(n)
	}
	return nil
}

func info(st *store.Store, args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	name := fs.String("name", "", "object name (required)")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("info: -name is required")
	}
	if t, err := st.LoadSparse(*name); err == nil {
		fmt.Printf("%s: sparse tensor, shape %v, %d cells, density %.3g, norm %.6g\n",
			*name, t.Shape, t.NNZ(), t.Density(), t.Norm())
		return nil
	}
	if d, err := st.LoadDecomposition(*name); err == nil {
		fmt.Printf("%s: Tucker decomposition, core shape %v, ranks %v\n", *name, d.Core.Shape, d.Ranks)
		return nil
	}
	return fmt.Errorf("info: cannot read %q as any known kind", *name)
}

func dump(st *store.Store, args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	name := fs.String("name", "", "object name (required)")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("dump: -name is required")
	}
	t, err := st.LoadSparse(*name)
	if err != nil {
		return err
	}
	w := csv.NewWriter(os.Stdout)
	header := make([]string, t.Order()+1)
	for i := range header[:t.Order()] {
		header[i] = fmt.Sprintf("mode%d", i)
	}
	header[t.Order()] = "value"
	if err := w.Write(header); err != nil {
		return err
	}
	var werr error
	t.Each(func(idx []int, v float64) {
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

func decompose(st *store.Store, args []string) error {
	fs := flag.NewFlagSet("decompose", flag.ExitOnError)
	name := fs.String("name", "", "input sparse tensor (required)")
	out := fs.String("out", "", "output decomposition name (required)")
	rank := fs.Int("rank", 3, "uniform target rank")
	hooi := fs.Bool("hooi", false, "refine with HOOI iterations")
	par := fs.Int("parallel", 0, "worker-pool size for the decomposition kernels (0 = all CPUs, 1 = serial; results are identical for any value)")
	fs.Parse(args)
	if *name == "" || *out == "" {
		return fmt.Errorf("decompose: -name and -out are required")
	}
	t, err := st.LoadSparse(*name)
	if err != nil {
		return err
	}
	res, err := m2td.TuckerCtx(context.Background(), t, m2td.TuckerOptions{
		Rank:     *rank,
		HOOI:     *hooi,
		Parallel: *par,
	})
	if err != nil {
		return err
	}
	if err := st.SaveDecomposition(*out, res.Decomposition); err != nil {
		return err
	}
	fit, err := res.Fit(t)
	if err != nil {
		return err
	}
	fmt.Printf("stored %q: ranks %v, fit %.6f\n", *out, res.Ranks, fit)
	return nil
}

func rm(st *store.Store, args []string) error {
	fs := flag.NewFlagSet("rm", flag.ExitOnError)
	name := fs.String("name", "", "object name (required)")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("rm: -name is required")
	}
	return st.Delete(*name)
}

// importCmd reads CSV rows of "idx0,idx1,…,value" (an optional header row
// is skipped) from r and stores them as a sparse tensor with the given
// shape — the inverse of dump. A NaN or ±Inf value is refused with its
// row, and nothing is stored: no kernel takes one.
func importCmd(st *store.Store, args []string, r io.Reader) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	name := fs.String("name", "", "object name (required)")
	shapeArg := fs.String("shape", "", "comma-separated mode sizes (required)")
	fs.Parse(args)
	if *name == "" || *shapeArg == "" {
		return fmt.Errorf("import: -name and -shape are required")
	}
	var shape tensor.Shape
	for _, part := range strings.Split(*shapeArg, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || d < 1 {
			return fmt.Errorf("import: bad mode size %q", part)
		}
		shape = append(shape, d)
	}
	t := tensor.NewSparse(shape)
	cr := csv.NewReader(r)
	order := shape.Order()
	idx := make([]int, order)
	rowNum := 0
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("import: row %d: %v", rowNum+1, err)
		}
		rowNum++
		if len(row) != order+1 {
			return fmt.Errorf("import: row %d has %d fields, want %d", rowNum, len(row), order+1)
		}
		// Skip a header row (non-numeric first field) if present.
		if _, err := strconv.Atoi(strings.TrimSpace(row[0])); err != nil && rowNum == 1 {
			continue
		}
		for k := 0; k < order; k++ {
			i, err := strconv.Atoi(strings.TrimSpace(row[k]))
			if err != nil {
				return fmt.Errorf("import: row %d field %d: %v", rowNum, k, err)
			}
			if i < 0 || i >= shape[k] {
				return fmt.Errorf("import: row %d index %d out of range for mode %d", rowNum, i, k)
			}
			idx[k] = i
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(row[order]), 64)
		if err != nil {
			return fmt.Errorf("import: row %d value: %v", rowNum, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("import: row %d value %v is not finite", rowNum, v)
		}
		t.Append(idx, v)
	}
	if err := st.SaveSparse(*name, t); err != nil {
		return err
	}
	fmt.Printf("stored %q: shape %v, %d cells\n", *name, shape, t.NNZ())
	return nil
}

// serveCmd hosts the store as a campaign server until SIGINT/SIGTERM,
// then drains gracefully.
func serveCmd(st *store.Store, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8642", "listen address")
	queue := fs.Int("queue", 0, "max queued campaigns (0 = default)")
	quota := fs.Int("quota", 0, "per-tenant queued+running campaign quota (0 = default)")
	cacheSize := fs.Int("cache", 0, "decomposition LRU capacity (0 = default)")
	executors := fs.Int("executors", 0, "concurrent campaign limit (0 = default)")
	par := fs.Int("parallel", 0, "per-campaign kernel worker-pool size (0 = all CPUs)")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-campaign wall-clock bound (0 = none)")
	drain := fs.Duration("drain", time.Minute, "graceful-drain bound on shutdown")
	fs.Parse(args)

	s, err := serve.New(serve.Options{
		Store:       st,
		MaxQueue:    *queue,
		TenantQuota: *quota,
		CacheSize:   *cacheSize,
		Executors:   *executors,
		Parallel:    *par,
		JobTimeout:  *jobTimeout,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s.Start(ctx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("tensorstore: serving /v1 on http://%s (store %s)\n", ln.Addr(), st.Dir())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way
	fmt.Fprintln(os.Stderr, "tensorstore: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := s.Shutdown(dctx)
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	_ = srv.Shutdown(hctx)
	return drainErr
}

// clientCmd runs one typed-API client command against a running server.
func clientCmd(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8642", "server base URL")
	tenant := fs.String("tenant", "", "tenant identity sent as "+api.TenantHeader)
	job := fs.String("job", "", "job ID (status, result, predict)")
	wait := fs.Duration("wait", 0, "status: long-poll up to this duration; submit: block until the campaign finishes")
	params := fs.String("params", "", "predict: comma-separated physical parameter values")

	// Submit-only campaign flags.
	system := fs.String("system", "", "dynamical system (server default when empty)")
	res := fs.Int("res", 0, "grid resolution per parameter")
	samples := fs.Int("samples", 0, "time samples")
	rank := fs.Int("rank", 0, "uniform Tucker rank")
	method := fs.String("method", "", "decomposition method")
	pivot := fs.String("pivot", "", "pivot dimension name")
	seed := fs.Int64("seed", 0, "sampling seed")
	dist := fs.Int("dist", 0, "distributed worker processes (0 = in process)")
	distShards := fs.Int("dist-shards", 0, "distributed shard count (0 = derived from workers)")
	accSims := fs.Int("acc-sims", 0, "sampled accuracy-estimate simulations (0 = skip accuracy)")
	priority := fs.Int("priority", 0, "queue priority (higher runs first)")
	timeout := fs.Duration("timeout", 0, "per-campaign wall-clock bound")
	fs.Parse(args)

	client := api.NewClient(*addr)
	client.Tenant = *tenant
	ctx := context.Background()

	switch cmd {
	case "submit":
		spec := api.CampaignSpec{
			System:             *system,
			Resolution:         *res,
			TimeSamples:        *samples,
			Rank:               *rank,
			Method:             *method,
			Pivot:              *pivot,
			Seed:               *seed,
			AccuracySampleSims: *accSims,
			TimeoutMS:          timeout.Milliseconds(),
		}
		if *dist > 0 {
			spec.Distributed = &api.DistSpec{Workers: *dist, Shards: *distShards}
		}
		sub, err := client.Submit(ctx, api.SubmitRequest{Tenant: *tenant, Priority: *priority, Campaign: spec})
		if err != nil {
			return err
		}
		if *wait == 0 {
			return printJSON(sub)
		}
		if _, err := client.Wait(ctx, sub.JobID, 250*time.Millisecond); err != nil {
			return err
		}
		result, err := client.Result(ctx, sub.JobID)
		if err != nil {
			return err
		}
		return printJSON(result)
	case "status":
		requireJob(fs, *job)
		st, err := client.Status(ctx, *job, *wait)
		if err != nil {
			return err
		}
		return printJSON(st)
	case "result":
		requireJob(fs, *job)
		result, err := client.Result(ctx, *job)
		if err != nil {
			return err
		}
		return printJSON(result)
	case "predict":
		requireJob(fs, *job)
		var values []float64
		for _, part := range strings.Split(*params, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("predict: bad -params value %q", part)
			}
			values = append(values, v)
		}
		pred, err := client.Predict(ctx, *job, values)
		if err != nil {
			return err
		}
		return printJSON(pred)
	case "jobs":
		jobs, err := client.Jobs(ctx)
		if err != nil {
			return err
		}
		return printJSON(jobs)
	case "stats":
		stats, err := client.Stats(ctx)
		if err != nil {
			return err
		}
		return printJSON(stats)
	}
	return fmt.Errorf("unknown client command %q", cmd)
}

func requireJob(fs *flag.FlagSet, job string) {
	if job == "" {
		fmt.Fprintf(os.Stderr, "tensorstore %s: -job is required\n", fs.Name())
		os.Exit(2)
	}
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
