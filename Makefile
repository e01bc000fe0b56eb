# Developer entry points mirroring .github/workflows/ci.yml — `make ci`
# runs exactly what the pipeline runs.

GO ?= go

# Pinned external analysis tools (single source of truth — the CI lint
# job reads these exact versions). They are NOT module dependencies:
# go.mod stays zero-dependency, and `make lint` runs the hermetic
# in-repo suite (vet + m2tdlint) without them. `make lint-extra`
# installs and runs them where network access exists.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build vet lint lint-extra test race tables bench bench-smoke examples-smoke simgen-smoke perf-smoke perf fuzz-smoke trace-smoke dist-smoke serve-smoke tensorstore-smoke ci clean

all: build

build:
	$(GO) build ./...

# The second vet builds for arm64, where the four-lane kernel's .s files
# are excluded: the scalar fallback's stubs (internal/dynsys/lanes_other.go)
# must keep compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# Hermetic lint: go vet plus the in-repo m2tdlint invariant suite
# (determinism, ctxprop, floatcmp, atomicstore, metrichygiene — DESIGN.md
# §8).
# Runs offline; any finding fails the target. The CI lint job runs the
# same whole-module sweep with -json and archives the findings file.
lint: vet
	$(GO) run ./cmd/m2tdlint ./...

# External analyzers at pinned versions. Requires network for the first
# install; kept out of `ci` so the aggregate stays runnable offline.
lint-extra:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# The kernels' parity again at GOAMD64=v3: were the compiler ever to fuse
# the scalar kernel's multiply-adds into FMAs, it would part ways here with
# the packed kernel and with the closure reference (DESIGN.md §16).
test:
	$(GO) test ./...
	GOAMD64=v3 $(GO) test -run 'LanesKernel|CellsKernel|TrajectoryMatchesClosure' ./internal/dynsys

# Race-detector pass. The workers=1 vs workers=N bit-stability suites
# double as data-race proofs for the internal/parallel kernels here; the
# -count=20 soak catches races that need a particular interleaving — in
# the pool itself, in its busiest client, the simulation fan-out
# (internal/ensemble, driven by internal/partition: strip cursor +
# checkpoint saves outside the fan-out's locks), in the campaign
# server's executors (the one-producer gate on shared sims- catalogs), and
# in the two D-M2TD executors: the process engine (the coordinator's event
# loop, concurrent worker start and single reaper; every task kind under
# kill-and-recover) and core's in-process shard fan-out, whose tests
# internal/core and internal/dist hold.
race:
	$(GO) test -race -timeout 20m ./...
	$(GO) test -race -count=20 -timeout 25m ./internal/parallel ./internal/ensemble ./internal/partition ./internal/serve ./internal/distnet ./internal/core ./internal/dist

# Regenerate tables_output.txt: the paper's tables and figure at the default
# scale (-table all), then the ablations shaped like them. ≈ 1 min; the
# accuracy cells are deterministic (and pinned at res 6 by the golden test
# in internal/eval), the time cells are this machine's.
tables:
	$(GO) run ./cmd/m2tdbench -table all > tables_output.txt
	$(GO) run ./cmd/m2tdbench -table noise,ranks,extended,pivotselect >> tables_output.txt

# Full benchmark run (slow; honours M2TD_BENCH_RES). The kernel
# benchmarks are information, not a gate: performance is gated end to
# end by BENCHMARK.json (`make perf`).
bench:
	$(GO) test -run=NONE -bench=. ./...

# One iteration of every benchmark — keeps benchmark code compiling and
# running without measuring anything.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# One run of every program under examples/. They are roots of the
# reachability rule (DESIGN.md §3) — code stays in the build because an
# example calls it — so they must run to completion, not just compile.
# paperscale takes ≈ 13 s, the rest a few seconds together.
examples-smoke:
	@for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# cmd/simgen run as a binary, both modes: a reference trajectory, clean
# and with every simulation's first attempt failing transiently, and a
# sampled ensemble under injected transient faults — the one program whose
# only job is ensemble.EncodeCtx, so the shared simulation fan-out runs
# from a CLI on every PR. The faulted trajectory must equal the clean one
# byte for byte after one retry; the faulted runs must report their retry
# accounting on stderr.
simgen-smoke:
	$(GO) run ./cmd/simgen -system lorenz -samples 4 > simgen-smoke.clean
	$(GO) run ./cmd/simgen -system lorenz -samples 4 -fault-rate 1 > simgen-smoke.faulted 2> simgen-smoke.stderr \
		|| (cat simgen-smoke.stderr; exit 1)
	@cmp simgen-smoke.clean simgen-smoke.faulted \
		|| (echo "simgen-smoke: the faulted trajectory differs from the clean one"; exit 1)
	@grep 'simgen: faults: 2 attempts, 1 transient failures across 1 sims' simgen-smoke.stderr \
		|| (cat simgen-smoke.stderr; echo "simgen-smoke: no trajectory retry accounting on stderr"; exit 1)
	$(GO) run ./cmd/simgen -ensemble -budget 8 -res 4 -fault-rate 0.1 -timeout 30s > /dev/null 2> simgen-smoke.stderr \
		|| (cat simgen-smoke.stderr; exit 1)
	@grep 'simgen: encode: 8 executed, [1-9][0-9]* retried, 0 failed sims' simgen-smoke.stderr \
		|| (cat simgen-smoke.stderr; echo "simgen-smoke: no retry accounting on stderr"; exit 1)
	@rm -f simgen-smoke.stderr simgen-smoke.clean simgen-smoke.faulted

# The repo's one end-to-end benchmark (BENCHMARK.json, cmd/m2tdperf):
# four campaign workloads, each with a serial and an all-core arm.
# perf-smoke runs tiny shapes in ~10-15 s and checks every output
# (arm-vs-arm bit identity, served admissions, dist-vs-in-process) — it
# keeps the benchmark running, it measures nothing. perf is a full
# timed + traced run of every workload at one seed (~3-4 min); compare
# commits by alternating runs, never from one run per side
# (cmd/m2tdperf/README.md).
perf-smoke:
	$(GO) run ./cmd/m2tdperf -smoke

perf:
	$(GO) run ./cmd/m2tdperf -seed 7

# Short runs of the fuzz targets: the internal/tensor index algebra, the
# decoders of bytes that cross a disk or process boundary (store objects —
# sparse tensors, matrix lists, decompositions, sim sets — the JSONL trace
# log, control-plane frames, the task/result payloads inside a valid
# frame, and the phase artifacts the coordinator reads back), campaign
# identity (api.CampaignSpec JSON → Config.SimFingerprint /
# Fingerprint, which name shared store objects), the submit request
# bodies the server decodes (a config or invalid_request, never a 5xx),
# tensorstore import's CSV (an error, or finite cells in range), and the
# sparse Gram against a dense oracle over arbitrary storage orders. The
# Gram's inputs run to 4 096 cells, so its minimisation is capped at 1 s:
# at the default 60 s one large input can take the whole 10 s run.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzLinearIndexRoundtrip -fuzztime=10s ./internal/tensor
	$(GO) test -run=NONE -fuzz=FuzzDedupPreservesSum -fuzztime=10s ./internal/tensor
	$(GO) test -run=NONE -fuzz=FuzzLoadSparseRobustness -fuzztime=10s ./internal/store
	$(GO) test -run=NONE -fuzz=FuzzLoadMatrices -fuzztime=10s ./internal/store
	$(GO) test -run=NONE -fuzz=FuzzLoadDecomposition -fuzztime=10s ./internal/store
	$(GO) test -run=NONE -fuzz=FuzzLoadSimSet -fuzztime=10s ./internal/store
	$(GO) test -run=NONE -fuzz=FuzzReadJSONL -fuzztime=10s ./internal/obs
	$(GO) test -run=NONE -fuzz=FuzzReadFrame -fuzztime=10s ./internal/distnet
	$(GO) test -run=NONE -fuzz=FuzzTaskPayload -fuzztime=10s ./internal/distnet
	$(GO) test -run=NONE -fuzz=FuzzPhaseArtifact -fuzztime=10s ./internal/distnet
	$(GO) test -run=NONE -fuzz=FuzzCampaignSpecFingerprint -fuzztime=10s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzSubmitBody -fuzztime=10s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzImportCSV -fuzztime=10s ./cmd/tensorstore
	$(GO) test -run=NONE -fuzz=FuzzModeGram -fuzztime=10s -fuzzminimizetime=1s ./internal/tensor

# Observability acceptance drill (mirrors the CI `obs` job): run a faulted
# pipeline with a live metrics listener and a JSONL trace sink, assert the
# shutdown self-scrape, and replay the trace through tracecat.
trace-smoke:
	$(GO) run ./cmd/m2tdbench -run -res 8 -fault-rate 0.1 -divergent-rate 0.02 \
		-metrics-addr 127.0.0.1:0 -trace-out trace.jsonl 2> trace-run.stderr \
		|| (cat trace-run.stderr; exit 1)
	@grep -q "metrics scrape ok" trace-run.stderr
	$(GO) run ./cmd/tracecat trace.jsonl
	@rm -f trace.jsonl trace-run.stderr

# Distributed kill-and-recover drill (mirrors the CI `chaos` job): the
# same campaign on 3 worker processes with 0, 1, and 2 workers SIGKILLed
# mid-task, and once on the in-process executor of the same phase bodies
# (-workers 4), must produce the same core fingerprint bit for bit, and
# the killed run's merged trace must replay through tracecat with no span
# left running (tracecat's footer reads "N spans (M running)"). A stable
# shard count (-dist-shards = -workers) pins the determinism unit so the
# four runs are comparable. Then a faulted pair: the same campaign with
# divergent trajectories quarantined (-divergent-rate 0.02 leaves holes in
# the P×E grid, whose pivot groups the join-free formula takes like any
# other) on both executors, and on worker processes with one killed — so
# the Phase 3 object is re-leased and re-read — must print one fingerprint
# too: another one.
dist-smoke:
	$(GO) run ./cmd/m2tdbench -run -res 6 -workers 4 > dist-inproc.out
	$(GO) run ./cmd/m2tdbench -run -res 6 -dist-procs 3 -dist-shards 4 > dist-clean.out
	$(GO) run ./cmd/m2tdbench -run -res 6 -dist-procs 3 -dist-shards 4 \
		-kill-workers 1 -trace-out dist-trace.jsonl > dist-kill1.out
	$(GO) run ./cmd/m2tdbench -run -res 6 -dist-procs 3 -dist-shards 4 \
		-kill-workers 2 > dist-kill2.out
	@grep '^core fingerprint' dist-inproc.out dist-clean.out dist-kill1.out dist-kill2.out
	@test "$$(grep -h '^core fingerprint' dist-inproc.out dist-clean.out dist-kill1.out dist-kill2.out | sort -u | wc -l)" = 1 \
		|| (echo "kill-and-recover drill: fingerprints diverged"; exit 1)
	$(GO) run ./cmd/tracecat dist-trace.jsonl > dist-trace.txt
	@if grep -E ' spans \([0-9]+ running\)' dist-trace.txt; then \
		echo "kill-and-recover drill: the trace has spans still running"; exit 1; fi
	$(GO) run ./cmd/m2tdbench -run -res 6 -divergent-rate 0.02 -workers 4 > dist-holes-inproc.out
	$(GO) run ./cmd/m2tdbench -run -res 6 -divergent-rate 0.02 -dist-procs 3 -dist-shards 4 > dist-holes-procs.out
	$(GO) run ./cmd/m2tdbench -run -res 6 -divergent-rate 0.02 -dist-procs 3 -dist-shards 4 \
		-kill-workers 1 > dist-holes-kill1.out
	@grep -H '^quarantined cells  *[1-9]' dist-holes-inproc.out dist-holes-procs.out dist-holes-kill1.out \
		|| (echo "faulted pair: no cell was quarantined, the drill tests nothing"; exit 1)
	@grep '^core fingerprint' dist-holes-inproc.out dist-holes-procs.out dist-holes-kill1.out
	@test "$$(grep -h '^core fingerprint' dist-holes-inproc.out dist-holes-procs.out dist-holes-kill1.out dist-clean.out | sort -u | wc -l)" = 2 \
		|| (echo "faulted pair: want one fingerprint on both executors, killed or not, and not the clean campaign's"; exit 1)
	@rm -f dist-inproc.out dist-clean.out dist-kill1.out dist-kill2.out dist-trace.jsonl dist-trace.txt dist-holes-inproc.out dist-holes-procs.out dist-holes-kill1.out

# Serving-layer acceptance (mirrors the CI `serve` job): the handler and
# typed-client suites under -race, including the kill-mid-campaign
# checkpoint-resume drill. That duplicate submissions coalesce and hit
# the decomposition cache is asserted exactly, and fatally, by
# perf-smoke's served-mix workload.
serve-smoke:
	$(GO) test -race -timeout 15m ./internal/serve ./api

# The server exercised as a binary (mirrors the CI `serve` job's last
# step): cmd/tensorstore built once, `serve` on a free port over a scratch
# store, `submit` twice (the second must be absorbed), `predict`, `stats`,
# then SIGTERM must log "draining" and exit 0.
tensorstore-smoke:
	GO="$(GO)" sh cmd/tensorstore/smoke.sh

ci: build lint test race bench-smoke examples-smoke simgen-smoke perf-smoke fuzz-smoke trace-smoke dist-smoke serve-smoke tensorstore-smoke

clean:
	$(GO) clean ./...
