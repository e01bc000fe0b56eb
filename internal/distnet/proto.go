package distnet

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/stitch"
)

// Control-plane messages (JSON frame payloads) and the catalog naming
// scheme shared by coordinator and workers.

// helloMsg is the worker's first frame after connecting.
type helloMsg struct {
	Worker  int    `json:"worker"`
	PID     int    `json:"pid"`
	Metrics string `json:"metrics,omitempty"` // bound obs endpoint, if serving
}

// jobSpec is the run-wide geometry every task carries: the stitch spec
// and the fixed shard count. Both are pure values — two workers given
// the same spec compute byte-identical artifacts.
type jobSpec struct {
	Join   stitch.Spec `json:"join"`
	Shards int         `json:"shards"`
}

// taskMsg leases one task to a worker.
type taskMsg struct {
	ID    string  `json:"id"`
	Kind  string  `json:"kind"` // taskFactor | taskStitch | taskCore | taskProject
	Kappa int     `json:"kappa,omitempty"`
	Mode  int     `json:"mode,omitempty"` // sub-local mode (factor tasks)
	Rank  int     `json:"rank,omitempty"`
	Shard int     `json:"shard,omitempty"`
	In    string  `json:"in,omitempty"` // input object (core tasks)
	Out   string  `json:"out"`
	Spec  jobSpec `json:"spec"`
}

const (
	taskFactor  = "factor"  // Phase 1, both routes
	taskStitch  = "stitch"  // Phase 2, materialised route
	taskCore    = "core"    // Phase 3, materialised route
	taskProject = "project" // Phase 3, join-free route
)

// resultMsg reports a completed (or failed, via frameTaskErr) task.
type resultMsg struct {
	ID      string `json:"id"`
	Worker  int    `json:"worker"`
	Skipped bool   `json:"skipped,omitempty"` // output was already durable
	DurNS   int64  `json:"dur_ns"`
	Err     string `json:"err,omitempty"`
}

// heartbeatMsg extends the worker's lease.
type heartbeatMsg struct {
	Worker int    `json:"worker"`
	Task   string `json:"task,omitempty"`
}

// Catalog object names. The two inputs and the fused factor list are
// written by the coordinator, every run, before the first lease that reads
// them. Every task writes exactly one output object, named after the job
// and the task (job.object): the job key hashes everything the output
// depends on — fusion method, clipped ranks, shard count, zero-join, route
// and both inputs' store checksums — so a WorkDir that another campaign
// used holds nothing this one can mistake for its own, and the resume
// check stays "does my output load" with no manifest beside it.
const objFactors = "factors"

var objSubs = [2]string{"in-sub1", "in-sub2"}

func factorOut(kappa, mode int) string { return fmt.Sprintf("p1-k%d-m%d", kappa, mode) }
func stitchOut(shard int) string       { return fmt.Sprintf("p2-j%d", shard) }
func coreOut(shard int) string         { return fmt.Sprintf("p3-c%d", shard) }
func projectOut(shard int) string      { return fmt.Sprintf("p3-g%d", shard) }

// jobKey is the identity a job's artifacts are named under.
func jobKey(method core.Method, ranks []int, shards int, zeroJoin, factored bool, inputs [2]uint32) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%v|%d|%t|%t|%08x", method, ranks, shards, zeroJoin, factored, inputs)
	return fmt.Sprintf("%016x", h.Sum64())
}

// taskKey seeds the re-lease backoff jitter for a task: a pure function
// of the task's identity, so coordinator restarts sleep identically.
func taskKey(id string) uint64 {
	return uint64(crc32.ChecksumIEEE([]byte(id)))<<1 | 1
}

// Environment variables carrying a worker's configuration from the
// coordinator (or a test harness) to the child process. MaybeWorker
// reads them; the coordinator's spawner writes them.
const (
	envAddr    = "M2TD_DISTNET_ADDR"
	envDir     = "M2TD_DISTNET_DIR"
	envID      = "M2TD_DISTNET_ID"
	envBeat    = "M2TD_DISTNET_BEAT"
	envKill    = "M2TD_DISTNET_KILL"
	envMetrics = "M2TD_DISTNET_METRICS"
	envCorrupt = "M2TD_DISTNET_CORRUPT"
)
