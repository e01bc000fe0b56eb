package distnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mat"
	"repro/internal/store"
	"repro/internal/tensor"
)

// The worker side of the engine. A worker is a whole child process: it
// dials the coordinator, says hello, and executes one leased task at a
// time, heartbeating throughout, for as many campaigns as its fleet serves.
// Every task names its job's catalog, and its output goes through it, so a
// task whose artifact is already durable (left by a run of the same
// campaign, or by a sibling that finished before being quarantined) is
// acknowledged as Skipped without recomputation — the resume path that
// makes kill-and-recover cheap.

// workerConfig is a worker process's environment-derived configuration.
type workerConfig struct {
	Addr string // coordinator address
	ID   int

	Kill    faults.KillSpec // seeded chaos plan; this worker checks its own doom
	Corrupt bool            // test hook: first result goes out CRC-corrupted
}

// MaybeWorker turns the current process into a distnet worker when the
// M2TD_DISTNET_ADDR environment variable is set, and never returns in
// that case. Binaries that can be spawned by the coordinator's self-exec
// mode (cmd/m2tdbench, cmd/m2tdperf, the test binaries' TestMain) must call
// it first thing in main.
func MaybeWorker() {
	addr := os.Getenv(envAddr)
	if addr == "" {
		return
	}
	cfg := workerConfig{
		Addr:    addr,
		Corrupt: os.Getenv(envCorrupt) != "" && os.Getenv(envCorrupt) == os.Getenv(envID),
	}
	var err error
	if cfg.ID, err = strconv.Atoi(os.Getenv(envID)); err != nil {
		fmt.Fprintf(os.Stderr, "m2td worker: bad %s: %v\n", envID, err)
		os.Exit(1)
	}
	if cfg.Kill, err = faults.ParseKillSpec(os.Getenv(envKill)); err != nil {
		fmt.Fprintf(os.Stderr, "m2td worker: bad %s: %v\n", envKill, err)
		os.Exit(1)
	}
	//lint:allow ctxprop -- process entry point: the worker's root context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = runWorker(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "m2td worker %d: %v\n", cfg.ID, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// sender serialises frame writes between the task loop and the
// heartbeat goroutine.
type sender struct {
	mu   sync.Mutex
	conn net.Conn
}

// Write puts one whole frame on the connection: writeFrame and sendCorrupt
// each make exactly one call.
func (s *sender) Write(frame []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn.Write(frame)
}

func (s *sender) send(t frameType, msg any) error {
	payload, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	return writeFrame(s, t, payload)
}

// sendCorrupt writes a result-typed frame whose CRC footer is
// deliberately wrong — the chaos hook behind Corrupt. The coordinator
// must detect it and quarantine this worker.
func (s *sender) sendCorrupt() {
	frame := encodeFrame(frameResult, []byte(`{"id":"garbage"}`))
	for i := len(frame) - 4; i < len(frame); i++ {
		frame[i] ^= 0xff
	}
	_, _ = s.Write(frame)
}

// workerState is the job a worker serves — its catalog and key, as its
// latest task named them — and the artifacts that job's tasks share: the
// input sub-tensors and the fused factor list, cached until a task of
// another job arrives.
type workerState struct {
	cfg workerConfig

	dir, job string
	st       *store.Store
	subs     [2]*tensor.Sparse
	factors  []*mat.Matrix

	executed int // tasks begun, the kill-point ordinal clock
}

// runWorker connects to the coordinator and serves tasks until a
// shutdown frame, connection loss, or ctx cancellation.
func runWorker(ctx context.Context, cfg workerConfig) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("distnet: dial coordinator: %w", err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	s := &sender{conn: conn}
	if err := s.send(frameHello, helloMsg{Worker: cfg.ID, PID: os.Getpid()}); err != nil {
		return fmt.Errorf("distnet: hello: %w", err)
	}

	// Heartbeats flow on their own goroutine so a long compute doesn't
	// starve the lease.
	var curTask atomic.Value
	curTask.Store("")
	beatsDone := make(chan struct{})
	defer close(beatsDone)
	go func() {
		tick := time.NewTicker(heartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-beatsDone:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				id, _ := curTask.Load().(string)
				if s.send(frameHeartbeat, heartbeatMsg{Worker: cfg.ID, Task: id}) != nil {
					return
				}
			}
		}
	}()

	w := &workerState{cfg: cfg}
	for {
		t, payload, err := readFrame(conn)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // coordinator gone or we were told to stop
			}
			return fmt.Errorf("distnet: read: %w", err)
		}
		switch t {
		case frameTask:
			var task taskMsg
			if err := json.Unmarshal(payload, &task); err != nil {
				return fmt.Errorf("distnet: task payload: %w", err)
			}
			curTask.Store(task.ID)
			res, err := w.exec(ctx, task)
			curTask.Store("")
			if err != nil {
				if serr := s.send(frameTaskErr, resultMsg{ID: task.ID, Worker: cfg.ID, Err: err.Error()}); serr != nil {
					return serr
				}
				continue
			}
			if cfg.Corrupt {
				s.sendCorrupt()
				return nil // a corrupting worker exits after its sabotage
			}
			if err := s.send(frameResult, res); err != nil {
				return err
			}
		case frameShutdown:
			return nil
		default:
			return fmt.Errorf("distnet: unexpected frame type %d from coordinator", t)
		}
	}
}

// exec runs one leased task. The chaos clock ticks per task begun: a
// doomed worker SIGKILLs itself at its seeded kill point, after the
// compute but before the durable save — the worst moment, guaranteeing
// the coordinator must re-lease.
func (w *workerState) exec(ctx context.Context, task taskMsg) (resultMsg, error) {
	start := time.Now()
	w.executed++
	doomed := w.cfg.Kill.Doomed(w.cfg.ID) && w.executed == w.cfg.Kill.KillPoint(w.cfg.ID)

	if err := task.check(); err != nil {
		return resultMsg{}, err
	}
	if err := w.begin(task); err != nil {
		return resultMsg{}, err
	}
	if w.outputDurable(task) {
		if doomed {
			faults.KillSelf()
		}
		return resultMsg{ID: task.ID, Worker: w.cfg.ID, Skipped: true, DurNS: time.Since(start).Nanoseconds()}, nil
	}

	var err error
	switch task.Kind {
	case taskFactor:
		err = w.execFactor(task, doomed)
	case taskProject:
		err = w.execProject(task, doomed)
	}
	if err != nil {
		return resultMsg{}, err
	}
	if ctx.Err() != nil {
		return resultMsg{}, ctx.Err()
	}
	return resultMsg{ID: task.ID, Worker: w.cfg.ID, DurNS: time.Since(start).Nanoseconds()}, nil
}

// check rejects a task no coordinator leases — an unknown kind, a
// sub-tensor other than 1 or 2, a shard outside [0, Shards) — as a task
// error, before anything is indexed by its fields. What can only be checked
// against the data (a factor task's mode and rank, the stitch spec, the
// factor list) is checked where the data is loaded. The retired kinds
// "stitch" and "core" are unknown kinds.
func (t taskMsg) check() error {
	switch t.Kind {
	case taskFactor:
		if t.Kappa != 1 && t.Kappa != 2 {
			return fmt.Errorf("distnet: task %s: no sub-tensor %d", t.ID, t.Kappa)
		}
	case taskProject:
		if t.Spec.Shards < 1 || t.Shard < 0 || t.Shard >= t.Spec.Shards {
			return fmt.Errorf("distnet: task %s: shard %d of %d", t.ID, t.Shard, t.Spec.Shards)
		}
	default:
		return fmt.Errorf("distnet: task %s: unknown task kind %q", t.ID, t.Kind)
	}
	return nil
}

// begin makes the task's job the worker's current one. A task of another
// job — another key, or the same key in another catalog — drops the cached
// artifacts and opens its catalog, which must exist: a worker never creates
// a directory a frame names, and a task naming none is a task error.
func (w *workerState) begin(task taskMsg) error {
	if w.st != nil && task.Dir == w.dir && task.Job == w.job {
		return nil
	}
	*w = workerState{cfg: w.cfg, executed: w.executed}
	st, err := store.OpenExisting(task.Dir)
	if err != nil {
		return fmt.Errorf("distnet: task %s: catalog: %w", task.ID, err)
	}
	w.dir, w.job, w.st = task.Dir, task.Job, st
	return nil
}

// outputDurable reports whether the task's output object already loads
// cleanly — the resume check. The object's name carries the job's identity
// (proto.go), so only this job's own earlier output can answer it.
func (w *workerState) outputDurable(task taskMsg) bool {
	_, err := w.st.LoadMatrices(task.out())
	return err == nil
}

// sub loads (and caches) input sub-tensor kappa (1 or 2). The kernels
// take finite values only, which the coordinator's ingest guaranteed; a
// non-finite value in the object is store.ErrCorrupt, never a hole.
func (w *workerState) sub(kappa int) (*tensor.Sparse, error) {
	if x := w.subs[kappa-1]; x != nil {
		return x, nil
	}
	name := objSubs[kappa-1]
	x, err := w.st.LoadSparse(name)
	if err != nil {
		return nil, fmt.Errorf("distnet: input %s: %w", name, err)
	}
	for e, v := range x.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			idx, _ := x.Entry(e)
			return nil, fmt.Errorf("distnet: input %s: value %v at %v: %w", name, v, idx, store.ErrCorrupt)
		}
	}
	w.subs[kappa-1] = x
	return x, nil
}

// pair loads both sub-tensors and checks the task's stitch spec against
// them, so no pivot key the shard kernel computes can fall outside it.
func (w *workerState) pair(task taskMsg) (x1, x2 *tensor.Sparse, err error) {
	x1, err1 := w.sub(1)
	x2, err2 := w.sub(2)
	if err := errors.Join(err1, err2); err != nil {
		return nil, nil, err
	}
	return x1, x2, task.Spec.Join.Check(x1.Shape, x2.Shape)
}

// fused loads (and caches) the fused factor list and checks that it
// projects a tensor of the given full-space shape.
func (w *workerState) fused(shape tensor.Shape) ([]*mat.Matrix, error) {
	if w.factors == nil {
		fs, err := w.st.LoadMatrices(objFactors)
		if err != nil {
			return nil, fmt.Errorf("distnet: input %s: %w", objFactors, err)
		}
		w.factors = fs
	}
	if len(w.factors) != len(shape) {
		return nil, fmt.Errorf("distnet: input %s: %d factors for order-%d shape %v", objFactors, len(w.factors), len(shape), shape)
	}
	for m, f := range w.factors {
		if f.Rows != shape[m] {
			return nil, fmt.Errorf("distnet: input %s: factor %d has %d rows, mode size %d", objFactors, m, f.Rows, shape[m])
		}
	}
	return w.factors, nil
}

// execFactor is Phase 1: one (sub-tensor, mode) pair — the mode's Gram
// matrix and its leading eigenvectors, saved together (CONCAT fusion
// needs the Gram).
func (w *workerState) execFactor(task taskMsg, doomed bool) error {
	x, err := w.sub(task.Kappa)
	if err != nil {
		return err
	}
	if task.Mode < 0 || task.Mode >= x.Order() || task.Rank < 1 || task.Rank > x.Shape[task.Mode] {
		return fmt.Errorf("distnet: task %s: rank %d of mode %d of a %v sub-tensor", task.ID, task.Rank, task.Mode, x.Shape)
	}
	g := tensor.ModeGramWorkers(x, task.Mode, 0)
	f := mat.LeadingEigenvectors(g, task.Rank)
	if doomed {
		faults.KillSelf()
	}
	return w.st.SaveMatrices(task.out(), []*mat.Matrix{g, f})
}

// execProject is Phase 3 for one shard: core.ProjectShard — the body
// core.DecomposeFactored runs at shard 0 of 1 — over the pivot groups whose
// key lands in the shard (key % Shards, a pure function of the cell). The
// partial is saved as one object; the coordinator sums the shards' in shard
// order.
func (w *workerState) execProject(task taskMsg, doomed bool) error {
	x1, x2, err := w.pair(task)
	if err != nil {
		return err
	}
	factors, err := w.fused(task.Spec.Join.Shape)
	if err != nil {
		return err
	}
	part := core.ProjectShard(task.Spec.Join, task.Spec.Sampled, x1, x2, factors, task.Shard, task.Spec.Shards, 0)
	if doomed {
		faults.KillSelf()
	}
	return w.st.SaveMatrices(task.out(), partialMatrices(part))
}
