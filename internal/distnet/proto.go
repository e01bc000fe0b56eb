package distnet

import (
	"fmt"
	"hash/crc32"

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
	Kind  string  `json:"kind"` // taskFactor | taskStitch | taskCore
	Kappa int     `json:"kappa,omitempty"`
	Mode  int     `json:"mode,omitempty"` // sub-local mode (factor tasks)
	Rank  int     `json:"rank,omitempty"`
	Shard int     `json:"shard,omitempty"`
	In    string  `json:"in,omitempty"` // input object (core tasks)
	Out   string  `json:"out"`
	Spec  jobSpec `json:"spec"`
}

const (
	taskFactor = "factor"
	taskStitch = "stitch"
	taskCore   = "core"
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

// Catalog object names. Inputs are written by the coordinator before the
// first lease; every task writes exactly one output object.
const (
	objSub1    = "in-sub1"
	objSub2    = "in-sub2"
	objFactors = "factors"
)

func factorOut(kappa, mode int) string { return fmt.Sprintf("p1-k%d-m%d", kappa, mode) }
func stitchOut(shard int) string       { return fmt.Sprintf("p2-j%d", shard) }
func coreOut(shard int) string         { return fmt.Sprintf("p3-c%d", shard) }

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
