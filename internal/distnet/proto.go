package distnet

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/stitch"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Control-plane messages (JSON frame payloads) and the catalog naming
// scheme shared by coordinator and workers.

// helloMsg is the worker's first frame after connecting.
type helloMsg struct {
	Worker int `json:"worker"`
	PID    int `json:"pid"`
}

// jobSpec is the run-wide geometry every task carries: the stitch spec, the
// sampled grid's size and the fixed shard count. All are pure values — two
// workers given the same spec compute byte-identical artifacts.
type jobSpec struct {
	Join    stitch.Spec  `json:"join"`
	Sampled core.Sampled `json:"sampled"`
	Shards  int          `json:"shards"`
}

// taskMsg leases one task to a worker. Dir is the job's catalog and Job its
// key: the task's output is the object objectName(Job, ID) in Dir. A worker
// outlives the job, so every task says where its job lives.
type taskMsg struct {
	ID    string  `json:"id"`
	Kind  string  `json:"kind"` // taskFactor | taskProject
	Kappa int     `json:"kappa,omitempty"`
	Mode  int     `json:"mode,omitempty"` // sub-local mode (factor tasks)
	Rank  int     `json:"rank,omitempty"`
	Shard int     `json:"shard,omitempty"`
	Dir   string  `json:"dir"`
	Job   string  `json:"job"`
	Spec  jobSpec `json:"spec"`
}

// out is the catalog name of the task's output.
func (t taskMsg) out() string { return objectName(t.Job, t.ID) }

const (
	taskFactor  = "factor"  // Phase 1
	taskProject = "project" // Phase 3
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
// and the task (objectName): the job key hashes everything the output
// depends on — the Phase 3 layout, fusion method, clipped ranks, shard
// count, zero-join, sampled grid and both inputs' store checksums — so a
// WorkDir that another campaign used holds nothing this one can mistake
// for its own, and the resume check stays "does my output load" with no
// manifest beside it.
const objFactors = "factors"

var objSubs = [2]string{"in-sub1", "in-sub2"}

func objectName(job, id string) string { return job + "-" + id }
func factorOut(kappa, mode int) string { return fmt.Sprintf("p1-k%d-m%d", kappa, mode) }
func projectOut(shard int) string      { return fmt.Sprintf("p3-g%d", shard) }

// checkPhase1 checks a Phase 1 output object: the mode's Gram matrix,
// size × size, and its factor, size × rank — the sub-tensor's mode size and
// the job's clipped rank. What fusion would misread is store.ErrCorrupt.
func checkPhase1(ms []*mat.Matrix, size, rank int) error {
	if len(ms) != 2 || ms[0].Rows != size || ms[0].Cols != size || ms[1].Rows != size || ms[1].Cols != rank {
		return fmt.Errorf("want a %d×%d Gram and a %d×%d factor: %w", size, size, size, rank, store.ErrCorrupt)
	}
	return nil
}

// partialMatrices is a Phase 3 output object: the shard's core-sized
// partial, then a one-count row — its holey groups.
func partialMatrices(p core.Partial) []*mat.Matrix {
	row := func(data ...float64) *mat.Matrix { return &mat.Matrix{Rows: 1, Cols: len(data), Data: data} }
	return []*mat.Matrix{row(p.G.Data...), row(float64(p.Holey))}
}

// partialOf reads a Phase 3 output object back, checking the partial's
// length against the core shape the job's ranks give and that the count is
// an integer in [0, MaxInt32] (not -0: an accepted object re-encodes to its
// own bits).
func partialOf(ms []*mat.Matrix, shape tensor.Shape) (core.Partial, error) {
	if len(ms) != 2 || len(ms[0].Data) != shape.NumElements() || len(ms[1].Data) != 1 {
		return core.Partial{}, fmt.Errorf("want a %v partial and one count: %w", shape, store.ErrCorrupt)
	}
	whole, frac := math.Modf(ms[1].Data[0])
	if frac != 0 || math.Signbit(whole) || whole > math.MaxInt32 {
		return core.Partial{}, fmt.Errorf("count %v: %w", ms[1].Data[0], store.ErrCorrupt)
	}
	return core.Partial{G: &tensor.Dense{Shape: shape.Clone(), Data: ms[0].Data}, Holey: int(whole)}, nil
}

// jobLayout names what the artifacts hold beyond the job's inputs and
// options: the Phase 3 object layout (the core-sized partial and its
// holey row) and the kernel whose bits Phase 1's Grams carry (taken over
// fibre runs). It is part of every job key, so a catalog written under
// another layout or Gram kernel holds nothing a resumed job reads.
const jobLayout = "core+holey|gram=runs"

// jobKey is the identity a job's artifacts are named under.
func jobKey(method core.Method, ranks []int, spec jobSpec, inputs [2]uint32) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%v|%d|%t|%v|%08x", jobLayout, method, ranks, spec.Shards, spec.Join.ZeroJoin, spec.Sampled, inputs)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Environment variables carrying a worker's configuration from the
// coordinator (or a test harness) to the child process. MaybeWorker
// reads them; the coordinator's spawner writes them.
const (
	envAddr    = "M2TD_DISTNET_ADDR"
	envID      = "M2TD_DISTNET_ID"
	envKill    = "M2TD_DISTNET_KILL"
	envCorrupt = "M2TD_DISTNET_CORRUPT"
)

// heartbeatInterval is the workers' beat period and the coordinator's
// lease-check period. Coordinator and workers are one binary, so both
// read it here.
const heartbeatInterval = 250 * time.Millisecond
