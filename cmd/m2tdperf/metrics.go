package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric as BENCHMARK.json does. Bound is the
// share of the parent commit's median by which an end-to-end metric may
// worsen before a change counts as a regression; per-layer metrics have
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

var workloadDefs = []workloadDef{
	{"dense-join", "materialised-join pipeline (res 12): stitch and core recovery dominate; shows join allocation and the parallel core-recovery inversion"},
	{"factored-sim", "join-free pipeline (res 24): simulation fan-out dominates; bypass for kernel work, and the one place parallel scaling works"},
	{"served-mix", "campaign server over HTTP with a fixed admission mix (25% computed, 75% absorbed): store and serve writes beside reads"},
	{"dist-procs", "multi-process D-M2TD engine (res 8, 4 shards): spawn, framing, leases and store round-trips dominate; in-process workloads bypass it"},
}

// endToEnd are the bounded metrics, reported by every workload's timed
// run. Each is a figure that repeats on a shared machine: a best-of-run
// throughput, a ratio of adjacent units, or a count. The latency
// percentiles and failed_frac are declared with the per-layer metrics:
// the percentiles over a whole run move with the machine's contention by
// more than any admissible bound, and failed_frac reads 0 on a healthy
// tree, which the benchmark contract admits for no end-to-end metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"campaigns_per_s", "1/s", "higher", 0.25},
	{"serial_campaigns_per_s", "1/s", "higher", 0.25},
	{"parallel_speedup", "x", "higher", 0.15},
	{"alloc_mb_per_campaign", "MB", "lower", 0.02},
	{"accuracy", "frac", "higher", 0.000001},
}

// perLayer are the single-layer metrics of the traced run, in the order
// the README's layer table lists them.
var perLayer = []metricDef{
	{Name: "failed_frac", Unit: "frac", Better: "lower"},
	{Name: "campaign_s_p50", Unit: "s", Better: "lower"},
	{Name: "campaign_s_p90", Unit: "s", Better: "lower"},

	{Name: "m2td.first_campaign_s", Unit: "s", Better: "lower"},
	{Name: "m2td.unattributed_frac", Unit: "frac", Better: "lower"},
	{Name: "m2td.trace_on_overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "ensemble.sim_us", Unit: "us", Better: "lower"},
	{Name: "ensemble.sims_per_campaign", Unit: "count", Better: "lower"},
	{Name: "partition.generate_s", Unit: "s", Better: "lower"},
	{Name: "partition.fanout_eff", Unit: "frac", Better: "higher"},

	{Name: "core.decompose_s", Unit: "s", Better: "lower"},
	{Name: "core.factors_s", Unit: "s", Better: "lower"},
	{Name: "tensor.leading_vectors_s", Unit: "s", Better: "lower"},
	{Name: "core.factored_s", Unit: "s", Better: "lower"},

	{Name: "stitch.join_s", Unit: "s", Better: "lower"},
	{Name: "stitch.join_cells", Unit: "count", Better: "lower"},
	{Name: "stitch.ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "stitch.zero_join_s", Unit: "s", Better: "lower"},

	{Name: "tucker.core_recover_s", Unit: "s", Better: "lower"},
	{Name: "tucker.core_recover_serial_s", Unit: "s", Better: "lower"},
	{Name: "tucker.core_ns_per_nnz", Unit: "ns", Better: "lower"},
	{Name: "tucker.core_flops", Unit: "count", Better: "lower"},
	{Name: "tucker.core_bytes", Unit: "count", Better: "lower"},
	{Name: "tucker.core_flops_per_byte", Unit: "flop/B", Better: "higher"},
	{Name: "tucker.sketch_s", Unit: "s", Better: "lower"},

	{Name: "dist.decompose_s", Unit: "s", Better: "lower"},
	{Name: "dist.decompose_serial_s", Unit: "s", Better: "lower"},

	{Name: "distnet.phase1_s", Unit: "s", Better: "lower"},
	{Name: "distnet.phase2_s", Unit: "s", Better: "lower"},
	{Name: "distnet.phase3_s", Unit: "s", Better: "lower"},
	{Name: "distnet.spawn_s", Unit: "s", Better: "lower"},
	{Name: "distnet.tasks", Unit: "count", Better: "lower"},
	{Name: "distnet.requeues", Unit: "count", Better: "lower"},
	{Name: "distnet.store_objects", Unit: "count", Better: "lower"},
	{Name: "distnet.store_mb", Unit: "MB", Better: "lower"},
	{Name: "distnet.overhead_x", Unit: "x", Better: "lower"},

	{Name: "store.save_decomp_s", Unit: "s", Better: "lower"},
	{Name: "store.load_decomp_s", Unit: "s", Better: "lower"},
	{Name: "store.save_simset_s", Unit: "s", Better: "lower"},
	{Name: "store.load_simset_s", Unit: "s", Better: "lower"},
	{Name: "store.decomp_kb", Unit: "kB", Better: "lower"},

	{Name: "serve.cold_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.coalesced_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.cache_hit_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.store_hit_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.queue_wait_s_mean", Unit: "s", Better: "lower"},
	{Name: "serve.run_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.overhead_s", Unit: "s", Better: "lower"},
	{Name: "serve.jobs_done", Unit: "count", Better: "lower"},
	{Name: "serve.coalesced", Unit: "count", Better: "higher"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher"},
	{Name: "serve.store_hits", Unit: "count", Better: "higher"},
	{Name: "serve.recompute_frac", Unit: "frac", Better: "lower"},

	{Name: "api.submit_s_p50", Unit: "s", Better: "lower"},
	{Name: "api.status_s_p50", Unit: "s", Better: "lower"},
	{Name: "api.result_s_p50", Unit: "s", Better: "lower"},
	{Name: "api.predict_s_p50", Unit: "s", Better: "lower"},
	{Name: "api.predict_s_p90", Unit: "s", Better: "lower"},

	{Name: "eval.ground_truth_s", Unit: "s", Better: "lower"},
	{Name: "eval.accuracy_s", Unit: "s", Better: "lower"},

	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "frac", Better: "higher"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
}

// reading is one metric as one run measured it: the value, the number of
// samples behind it, and — for a value that is a median or percentile of
// samples — their quartiles.
type reading struct {
	value  float64
	n      int
	q1, q3 float64
}

// sheet collects a run's readings by metric name.
type sheet map[string]reading

// set records a single-sample value.
func (s sheet) set(name string, v float64) { s[name] = reading{value: v, n: 1, q1: v, q3: v} }

// setMedian records the median of samples with their quartiles. No
// samples read as 0 with a sample count of 0.
func (s sheet) setMedian(name string, samples []float64) {
	s.setOf(name, median(samples), samples)
}

// setOf records a statistic v of samples (a percentile, a throughput)
// beside the samples' count and quartiles.
func (s sheet) setOf(name string, v float64, samples []float64) {
	q1, q3 := quartiles(samples)
	s[name] = reading{value: v, n: len(samples), q1: q1, q3: q3}
}

// value is one metric in the result line the benchmark contract reads.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// export builds the result's metric map: every metric in defs, by name,
// with its declared unit. A metric the run did not measure is an error —
// the contract requires every declared metric on every run.
func (s sheet) export(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		r, ok := s[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: r.value, Unit: d.Unit}
	}
	return out, nil
}

// print writes every reading in defs order: name, value, unit, sample
// count and quartiles. Readings outside defs follow, sorted by name.
func (s sheet) print(w io.Writer, defs []metricDef) {
	seen := make(map[string]bool, len(defs))
	line := func(name, unit string, r reading) {
		fmt.Fprintf(w, "  %-30s %14.6g %-7s n=%-5d q1=%-12.6g q3=%.6g\n", name, r.value, unit, r.n, r.q1, r.q3)
	}
	for _, d := range defs {
		seen[d.Name] = true
		if r, ok := s[d.Name]; ok {
			line(d.Name, d.Unit, r)
		}
	}
	var extra []string
	for name := range s {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		line(name, "", s[name])
	}
}
