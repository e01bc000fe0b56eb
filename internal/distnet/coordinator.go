package distnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The coordinator side of the engine: spawn worker processes, accept
// their connections, and drive each phase through a single-goroutine
// event loop that leases tasks, tracks heartbeats, and re-leases work
// lost to dead, hung, or garbage-speaking workers.

// task is one unit of phase work as the coordinator tracks it.
type task struct {
	msg      taskMsg
	attempts int // leases so far (bounded by Retry.MaxAttempts)
	done     bool
	result   resultMsg
}

// eventKind discriminates the coordinator's event-loop messages.
type eventKind int

const (
	evHello eventKind = iota + 1
	evBeat
	evDone
	evTaskErr
	evDead
	evRequeue
	evProcExit
)

type event struct {
	kind   eventKind
	wc     *workerConn
	res    resultMsg
	taskID string // evRequeue
	reason string // evDead detail, for the trace
}

// workerConn is one connected worker. Mutable fields are guarded by the
// engine mutex; wmu serialises frame writes (lease sends vs shutdown
// broadcast).
type workerConn struct {
	id      int
	conn    net.Conn
	wmu     sync.Mutex
	pid     int
	metrics string

	tasks       int
	quarantined bool
	lastBeat    time.Time
	inflight    *task
}

// send marshals msg and writes one frame to the worker.
func (w *workerConn) send(t frameType, msg any) error {
	payload, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	//lint:allow locks -- w.wmu is the frame-write serialization mutex; holding it across exactly one frame write is its entire purpose
	return writeFrame(w.conn, t, payload)
}

// engine owns the listener, the worker processes, and the event loop
// state shared by the three phases.
type engine struct {
	opts    Options
	lis     net.Listener
	started time.Time

	events chan event
	done   chan struct{} // closed at shutdown; unblocks emitters

	mu        sync.Mutex
	workers   map[int]*workerConn
	connected int // hellos seen; == opts.Workers means no future joins

	procs     []*exec.Cmd
	procsLive atomic.Int32
	procWG    sync.WaitGroup
	acceptWG  sync.WaitGroup
	stopCtx   func() bool
}

// newEngine binds the listener, spawns the worker fleet, and starts
// accepting connections. The context cancels the whole engine: listener,
// connections, and (via their closed sockets) the event loop.
func newEngine(ctx context.Context, opts Options) (*engine, error) {
	lis, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("distnet: listen %s: %w", opts.Addr, err)
	}
	e := &engine{
		opts:    opts,
		lis:     lis,
		started: time.Now(),
		events:  make(chan event, 256),
		done:    make(chan struct{}),
		workers: make(map[int]*workerConn),
	}
	e.stopCtx = context.AfterFunc(ctx, func() { lis.Close() })

	argv := opts.WorkerArgv
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			lis.Close()
			return nil, fmt.Errorf("distnet: self-exec worker: %w", err)
		}
		argv = []string{exe}
	}
	// Process start blocks until the child has exec'd, so the fleet is
	// started concurrently: one worker's start-up cost, not Workers of them.
	// Ids are fixed before any start, so roster order does not depend on
	// which child came up first.
	e.procs = make([]*exec.Cmd, opts.Workers)
	errs := make([]error, opts.Workers)
	var starts sync.WaitGroup
	for id := range e.procs {
		starts.Add(1)
		go func() {
			defer starts.Done()
			e.procs[id], errs[id] = e.spawn(argv, id)
		}()
	}
	starts.Wait()
	e.procWG.Add(1)
	go e.reap()
	if err := errors.Join(errs...); err != nil {
		e.shutdown()
		return nil, err
	}

	e.acceptWG.Add(1)
	go e.acceptLoop(ctx)
	return e, nil
}

// spawn starts worker id as a child process configured through the
// M2TD_DISTNET_* environment.
func (e *engine) spawn(argv []string, id int) (*exec.Cmd, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	env := append(os.Environ(),
		envAddr+"="+e.lis.Addr().String(),
		envDir+"="+e.opts.WorkDir,
		fmt.Sprintf("%s=%d", envID, id),
		envBeat+"="+e.opts.HeartbeatInterval.String(),
	)
	if e.opts.Kill.Enabled() {
		env = append(env, envKill+"="+e.opts.Kill.String())
	}
	if e.opts.Metrics {
		env = append(env, envMetrics+"=1")
	}
	env = append(env, e.opts.WorkerEnv...)
	cmd.Env = env
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("distnet: spawn worker %d: %w", id, err)
	}
	e.procsLive.Add(1)
	return cmd, nil
}

// reap waits for the worker processes, one after another in id order, on
// ONE goroutine. A goroutine per process parks each in a blocking wait4,
// and a parked syscall keeps its P until the runtime's sysmon retakes it —
// at its idle pace, every 10 ms. With as many waiters as Ps (two workers at
// GOMAXPROCS = 2) nothing is left to run the accept of a worker's
// connection when it arrives: a hello written 4.5 ms after spawn was read
// 12.5 ms after it (median; one worker: 3.4 ms), on every campaign, and
// only by the arm with more than one worker. Order costs nothing: procsLive
// is read for "is any process left at all", and it reaches 0 exactly when
// every process has exited, in whatever order they did.
func (e *engine) reap() {
	defer e.procWG.Done()
	for _, cmd := range e.procs {
		if cmd == nil {
			continue
		}
		_ = cmd.Wait()
		e.procsLive.Add(-1)
		e.emit(event{kind: evProcExit})
	}
}

// emit delivers an event unless the engine is already shutting down.
func (e *engine) emit(ev event) {
	select {
	case e.events <- ev:
	case <-e.done:
	}
}

// acceptLoop admits worker connections until the listener closes.
func (e *engine) acceptLoop(ctx context.Context) {
	defer e.acceptWG.Done()
	for {
		conn, err := e.lis.Accept()
		if err != nil {
			return // listener closed: engine shutdown or ctx cancel
		}
		e.acceptWG.Add(1)
		go func() {
			defer e.acceptWG.Done()
			e.handshake(ctx, conn)
		}()
	}
}

// handshake reads the hello frame, registers the worker, and starts its
// read loop. A peer that doesn't present a valid hello promptly is
// dropped before it ever becomes a worker.
func (e *engine) handshake(ctx context.Context, conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	t, payload, err := readFrame(conn)
	if err != nil || t != frameHello {
		conn.Close()
		return
	}
	var hello helloMsg
	if err := json.Unmarshal(payload, &hello); err != nil {
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	wc := &workerConn{
		id:       hello.Worker,
		conn:     conn,
		pid:      hello.PID,
		metrics:  hello.Metrics,
		lastBeat: time.Now(),
	}
	e.mu.Lock()
	if _, dup := e.workers[wc.id]; dup {
		e.mu.Unlock()
		conn.Close() // impostor or restart; the original holds the slot
		return
	}
	e.workers[wc.id] = wc
	e.connected++
	e.mu.Unlock()

	e.emit(event{kind: evHello, wc: wc})
	e.readLoop(ctx, conn, wc)
}

// readLoop turns a worker's frames into events. Any read error — EOF
// from a SIGKILLed process, a CRC-corrupt frame, a protocol violation —
// becomes evDead: the worker is quarantined, never re-trusted.
func (e *engine) readLoop(ctx context.Context, conn net.Conn, wc *workerConn) {
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	for {
		t, payload, err := readFrame(conn)
		if err != nil {
			e.emit(event{kind: evDead, wc: wc, reason: fmt.Sprintf("read: %v", err)})
			conn.Close()
			return
		}
		switch t {
		case frameHeartbeat:
			// Advisory: drop rather than block if the loop is busy.
			select {
			case e.events <- event{kind: evBeat, wc: wc}:
			default:
			}
		case frameResult:
			var res resultMsg
			if err := json.Unmarshal(payload, &res); err != nil {
				e.emit(event{kind: evDead, wc: wc, reason: "bad result payload"})
				conn.Close()
				return
			}
			e.emit(event{kind: evDone, wc: wc, res: res})
		case frameTaskErr:
			var res resultMsg
			if err := json.Unmarshal(payload, &res); err != nil {
				e.emit(event{kind: evDead, wc: wc, reason: "bad error payload"})
				conn.Close()
				return
			}
			e.emit(event{kind: evTaskErr, wc: wc, res: res})
		default:
			e.emit(event{kind: evDead, wc: wc, reason: fmt.Sprintf("unexpected frame type %d", t)})
			conn.Close()
			return
		}
	}
}

// runPhase executes one phase's tasks to completion. Leases go to idle
// live workers FIFO; a lost worker's in-flight task is re-leased to a
// survivor after RetryPolicy backoff; the phase fails only when a task
// exhausts its attempts or every worker process is gone.
func (e *engine) runPhase(ctx context.Context, name string, tasks []*task) (PhaseStats, error) {
	start := time.Now()
	stats := PhaseStats{Tasks: len(tasks)}
	byID := make(map[string]*task, len(tasks))
	queue := make([]*task, 0, len(tasks))
	for _, t := range tasks {
		byID[t.msg.ID] = t
		queue = append(queue, t)
	}
	remaining := len(tasks)
	pendingRequeues := 0
	var timers []*time.Timer
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()

	var phaseErr error
	fail := func(err error) {
		if phaseErr == nil {
			phaseErr = err
		}
	}

	// quarantine removes a worker from rotation (idempotent) and
	// schedules its in-flight task, if any, for re-lease.
	quarantine := func(wc *workerConn, reason string) *task {
		e.mu.Lock()
		defer e.mu.Unlock()
		if wc.quarantined {
			return nil
		}
		wc.quarantined = true
		stats.WorkersLost++
		wc.conn.Close()
		t := wc.inflight
		wc.inflight = nil
		return t
	}

	requeue := func(t *task) {
		if t == nil || t.done {
			return
		}
		if t.attempts >= e.opts.Retry.MaxAttempts {
			fail(fmt.Errorf("distnet: %s: task %s failed after %d attempts", name, t.msg.ID, t.attempts))
			return
		}
		stats.Requeues++
		pendingRequeues++
		id := t.msg.ID
		delay := e.opts.Retry.Backoff(taskKey(id), t.attempts)
		timers = append(timers, time.AfterFunc(delay, func() {
			e.emit(event{kind: evRequeue, taskID: id})
		}))
	}

	// assign leases queued tasks to idle live workers. Sends happen
	// outside the lock; a failed send is an immediate death signal.
	assign := func() {
		type lease struct {
			wc *workerConn
			t  *task
		}
		var leases []lease
		e.mu.Lock()
		// Two options promise something of every worker, so under them no
		// lease goes out before the fleet is complete: a kill plan names
		// victims that die at their first or second task — one slower to
		// start than the others are to finish would survive for want of
		// work — and Metrics puts each worker's endpoint, which arrives with
		// its hello, on Result.Workers. A worker silent for LeaseTimeout since
		// the spawn is not waited for.
		whole := e.opts.Kill.Enabled() || e.opts.Metrics
		if whole && e.connected < e.opts.Workers && time.Since(e.started) < e.opts.LeaseTimeout {
			e.mu.Unlock()
			return
		}
		ids := make([]int, 0, len(e.workers))
		for id := range e.workers {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if len(queue) == 0 {
				break
			}
			wc := e.workers[id]
			if wc.quarantined || wc.inflight != nil {
				continue
			}
			t := queue[0]
			queue = queue[1:]
			t.attempts++
			wc.inflight = t
			wc.tasks++
			wc.lastBeat = time.Now()
			leases = append(leases, lease{wc, t})
		}
		e.mu.Unlock()
		for _, l := range leases {
			if err := l.wc.send(frameTask, l.t.msg); err != nil {
				e.emit(event{kind: evDead, wc: l.wc, reason: fmt.Sprintf("send: %v", err)})
			}
		}
	}

	ticker := time.NewTicker(e.opts.HeartbeatInterval)
	defer ticker.Stop()

	for remaining > 0 && phaseErr == nil {
		assign()

		// No live workers and no process left to produce one: the
		// degradation ladder has run out of rungs.
		e.mu.Lock()
		live := 0
		for _, wc := range e.workers {
			if !wc.quarantined {
				live++
			}
		}
		allJoined := e.connected >= e.opts.Workers
		e.mu.Unlock()
		if live == 0 && (allJoined || e.procsLive.Load() == 0) {
			return stats, fmt.Errorf("distnet: %s: all %d workers lost with %d tasks outstanding", name, e.opts.Workers, remaining)
		}

		select {
		case <-ctx.Done():
			return stats, ctx.Err()
		case <-ticker.C:
			// Lease audit: a worker holding a task whose heartbeats
			// stopped (without its socket dying) is hung — quarantine.
			var expired []*workerConn
			e.mu.Lock()
			for _, wc := range e.workers {
				if !wc.quarantined && wc.inflight != nil && time.Since(wc.lastBeat) > e.opts.LeaseTimeout {
					expired = append(expired, wc)
				}
			}
			e.mu.Unlock()
			for _, wc := range expired {
				requeue(quarantine(wc, "lease expired"))
			}
		case ev := <-e.events:
			switch ev.kind {
			case evHello, evProcExit:
				// Roster changed; the next assign()/liveness check sees it.
			case evBeat:
				e.mu.Lock()
				ev.wc.lastBeat = time.Now()
				e.mu.Unlock()
			case evDone:
				e.mu.Lock()
				t := ev.wc.inflight
				if t != nil && t.msg.ID == ev.res.ID {
					ev.wc.inflight = nil
					ev.wc.lastBeat = time.Now()
					if !t.done {
						t.done = true
						t.result = ev.res
						remaining--
						if ev.res.Skipped {
							stats.Skipped++
						}
					}
				}
				e.mu.Unlock()
			case evTaskErr:
				e.mu.Lock()
				t := ev.wc.inflight
				if t != nil && t.msg.ID == ev.res.ID {
					ev.wc.inflight = nil
					ev.wc.lastBeat = time.Now()
				} else {
					t = nil
				}
				e.mu.Unlock()
				requeue(t)
			case evDead:
				requeue(quarantine(ev.wc, ev.reason))
			case evRequeue:
				if t := byID[ev.taskID]; t != nil {
					pendingRequeues--
					if !t.done {
						queue = append(queue, t)
					}
				}
			}
		}
	}
	stats.Duration = time.Since(start)
	if phaseErr != nil {
		return stats, phaseErr
	}
	e.tracePhase(name, tasks, stats)
	return stats, nil
}

// tracePhase records the phase on the configured span: deterministic
// task counts as counters, scheduling-dependent values as gauges, and
// one child span per task — created post hoc in task order, so the
// trace skeleton is identical no matter which workers served or died.
func (e *engine) tracePhase(name string, tasks []*task, stats PhaseStats) {
	if e.opts.Span == nil {
		return
	}
	ps := e.opts.Span.Start(name)
	ps.Set("tasks", int64(stats.Tasks))
	ps.SetGauge("skipped", int64(stats.Skipped))
	ps.SetGauge("requeues", int64(stats.Requeues))
	ps.SetGauge("workers_lost", int64(stats.WorkersLost))
	for _, t := range tasks {
		ts := ps.Start("task:" + t.msg.ID)
		ts.SetGauge("worker", int64(t.result.Worker))
		ts.SetGauge("attempts", int64(t.attempts))
		ts.SetGauge("dur_ns", t.result.DurNS)
		ts.Finish()
	}
	ps.Finish()
}

// roster snapshots the worker fleet for Result.Workers, in id order: every
// process spawned, whether or not it had said hello by the time the
// campaign ended — a short campaign can be over before a slow starter
// joins, and the fleet's size must not depend on that race.
func (e *engine) roster() []WorkerInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]WorkerInfo, len(e.procs))
	for id, cmd := range e.procs {
		out[id] = WorkerInfo{ID: id, PID: cmd.Process.Pid}
		if wc := e.workers[id]; wc != nil {
			out[id] = WorkerInfo{
				ID: wc.id, PID: wc.pid, MetricsAddr: wc.metrics,
				Tasks: wc.tasks, Quarantined: wc.quarantined,
			}
		}
	}
	return out
}

// shutdown tears the engine down: polite shutdown frames first, then the
// listener and sockets, then — after a short grace — SIGKILL for any
// worker process that didn't exit on its own.
func (e *engine) shutdown() {
	close(e.done)
	e.mu.Lock()
	conns := make([]*workerConn, 0, len(e.workers))
	for _, wc := range e.workers {
		conns = append(conns, wc)
	}
	e.mu.Unlock()
	for _, wc := range conns {
		if !wc.quarantined {
			_ = wc.send(frameShutdown, struct{}{})
		}
	}
	e.lis.Close()
	if e.stopCtx != nil {
		e.stopCtx()
	}

	exited := make(chan struct{})
	go func() {
		e.procWG.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(3 * time.Second):
		for _, cmd := range e.procs {
			if cmd != nil && cmd.Process != nil {
				_ = cmd.Process.Kill()
			}
		}
		<-exited
	}

	for _, wc := range conns {
		wc.conn.Close()
	}
	e.acceptWG.Wait()

	// Drain any events emitted between close(e.done) checks and now.
	for {
		select {
		case <-e.events:
		default:
			return
		}
	}
}
