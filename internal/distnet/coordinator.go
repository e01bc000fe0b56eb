package distnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The coordinator side of the engine. A fleet is the long-lived part: the
// listener, the worker processes, their connections and the reaper. A job
// (distnet.go) is one campaign on it, driving each phase through a
// single-goroutine event loop that leases tasks, tracks heartbeats,
// re-leases work lost to dead, hung, or garbage-speaking workers, and fails
// the phase on a task error.

// task is one unit of phase work as the coordinator tracks it.
type task struct {
	msg      taskMsg
	attempts int // leases so far; each re-lease follows a lost worker
	done     bool
	result   resultMsg
	span     *obs.Span // phase open → result accepted
}

// eventKind discriminates the coordinator's event-loop messages.
type eventKind int

const (
	evHello eventKind = iota + 1
	evDone
	evTaskErr
	evDead
	evProcExit
)

type event struct {
	kind   eventKind
	wc     *workerConn
	res    resultMsg
	reason string // evDead: why the worker is lost
}

// workerConn is one connected worker. Mutable fields are guarded by the
// fleet mutex; wmu serialises frame writes (lease sends vs shutdown
// broadcast).
type workerConn struct {
	id   int
	conn net.Conn
	wmu  sync.Mutex
	pid  int

	tasks       int // leased in the current campaign
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
	return writeFrame(w.conn, t, payload)
}

// fleet owns the listener, the worker processes and their connections. It
// outlives the campaign that spawned it when the pool (pool.go) takes it
// back.
type fleet struct {
	sig     string // pool key; "" is a dedicated fleet, never pooled
	lis     net.Listener
	started time.Time
	idle    *time.Timer // while pooled: the idle shutdown

	events chan event
	done   chan struct{} // closed at shutdown; unblocks emitters
	stop   context.CancelFunc

	mu        sync.Mutex
	workers   map[int]*workerConn
	connected int // hellos seen; == len(procs) means no future joins

	procs     []*exec.Cmd
	procsLive atomic.Int32
	procWG    sync.WaitGroup
	acceptWG  sync.WaitGroup
}

// newFleet binds the listener, spawns the worker processes, and starts
// accepting connections. The fleet is not the campaign's: ctx's values
// reach it, its cancellation does not — shutdown ends it.
func newFleet(ctx context.Context, opts Options, argv []string, sig string) (*fleet, error) {
	lis, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("distnet: listen %s: %w", opts.Addr, err)
	}
	fctx, stop := context.WithCancel(context.WithoutCancel(ctx))
	f := &fleet{
		sig:     sig,
		lis:     lis,
		started: time.Now(),
		events:  make(chan event, 256),
		done:    make(chan struct{}),
		stop:    stop,
		workers: make(map[int]*workerConn),
	}

	// Process start blocks until the child has exec'd, so the fleet is
	// started concurrently: one worker's start-up cost, not Workers of them.
	// Ids are fixed before any start, so roster order does not depend on
	// which child came up first.
	f.procs = make([]*exec.Cmd, opts.Workers)
	errs := make([]error, opts.Workers)
	var starts sync.WaitGroup
	for id := range f.procs {
		starts.Add(1)
		go func() {
			defer starts.Done()
			f.procs[id], errs[id] = f.spawn(opts, argv, id)
		}()
	}
	starts.Wait()
	f.procWG.Add(1)
	go f.reap()
	if err := errors.Join(errs...); err != nil {
		f.shutdown()
		return nil, err
	}

	f.acceptWG.Add(1)
	go f.acceptLoop(fctx)
	return f, nil
}

// workerArgv is the worker command line: Options.WorkerArgv, or this
// executable.
func workerArgv(opts Options) ([]string, error) {
	if len(opts.WorkerArgv) > 0 {
		return opts.WorkerArgv, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("distnet: self-exec worker: %w", err)
	}
	return []string{exe}, nil
}

// spawn starts worker id as a child process configured through the
// M2TD_DISTNET_* environment.
func (f *fleet) spawn(opts Options, argv []string, id int) (*exec.Cmd, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	env := append(os.Environ(),
		envAddr+"="+f.lis.Addr().String(),
		fmt.Sprintf("%s=%d", envID, id),
	)
	if opts.Kill.Enabled() {
		env = append(env, envKill+"="+opts.Kill.String())
	}
	env = append(env, opts.WorkerEnv...)
	cmd.Env = env
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("distnet: spawn worker %d: %w", id, err)
	}
	f.procsLive.Add(1)
	return cmd, nil
}

// reap waits for the worker processes, one after another in id order, on
// ONE goroutine. A goroutine per process parks each in a blocking wait4,
// and a parked syscall keeps its P until the runtime's sysmon retakes it —
// at its idle pace, every 10 ms. With as many waiters as Ps (two workers at
// GOMAXPROCS = 2) nothing is left to run the accept of a worker's
// connection when it arrives: a hello written 4.5 ms after spawn was read
// 12.5 ms after it (median; one worker: 3.4 ms), on every campaign, and
// only by the arm with more than one worker. In id order, procsLive drops
// below the fleet's size only once worker 0 has exited; a death of another
// worker shows first as its connection's evDead.
func (f *fleet) reap() {
	defer f.procWG.Done()
	for _, cmd := range f.procs {
		if cmd == nil {
			continue
		}
		_ = cmd.Wait()
		f.procsLive.Add(-1)
		f.emit(event{kind: evProcExit})
	}
}

// emit delivers an event unless the fleet is already shutting down.
func (f *fleet) emit(ev event) {
	select {
	case f.events <- ev:
	case <-f.done:
	}
}

// acceptLoop admits worker connections until the listener closes.
func (f *fleet) acceptLoop(ctx context.Context) {
	defer f.acceptWG.Done()
	for {
		conn, err := f.lis.Accept()
		if err != nil {
			return // listener closed: fleet shutdown
		}
		f.acceptWG.Add(1)
		go func() {
			defer f.acceptWG.Done()
			f.handshake(ctx, conn)
		}()
	}
}

// handshake reads the hello frame, registers the worker, and starts its
// read loop. A peer that doesn't present a valid hello promptly, with one
// of the fleet's worker ids, is dropped before it ever becomes a worker.
func (f *fleet) handshake(ctx context.Context, conn net.Conn) {
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	t, payload, err := readFrame(conn)
	if err != nil || t != frameHello {
		conn.Close()
		return
	}
	var hello helloMsg
	if err := json.Unmarshal(payload, &hello); err != nil || hello.Worker < 0 || hello.Worker >= len(f.procs) {
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	wc := &workerConn{
		id:       hello.Worker,
		conn:     conn,
		pid:      hello.PID,
		lastBeat: time.Now(),
	}
	f.mu.Lock()
	if _, dup := f.workers[wc.id]; dup {
		f.mu.Unlock()
		conn.Close() // impostor or restart; the original holds the slot
		return
	}
	f.workers[wc.id] = wc
	f.connected++
	f.mu.Unlock()

	f.emit(event{kind: evHello, wc: wc})
	f.readLoop(wc)
}

// readLoop turns a worker's frames into events; a heartbeat only extends
// the worker's lease. Any read error — EOF from a SIGKILLed process, a
// CRC-corrupt frame, a protocol violation — becomes evDead: the worker is
// quarantined, never re-trusted.
func (f *fleet) readLoop(wc *workerConn) {
	conn := wc.conn
	for {
		t, payload, err := readFrame(conn)
		if err != nil {
			f.emit(event{kind: evDead, wc: wc, reason: fmt.Sprintf("read: %v", err)})
			conn.Close()
			return
		}
		switch t {
		case frameHeartbeat:
			f.mu.Lock()
			wc.lastBeat = time.Now()
			f.mu.Unlock()
		case frameResult:
			var res resultMsg
			if err := json.Unmarshal(payload, &res); err != nil {
				f.emit(event{kind: evDead, wc: wc, reason: "bad result payload"})
				conn.Close()
				return
			}
			f.emit(event{kind: evDone, wc: wc, res: res})
		case frameTaskErr:
			var res resultMsg
			if err := json.Unmarshal(payload, &res); err != nil {
				f.emit(event{kind: evDead, wc: wc, reason: "bad error payload"})
				conn.Close()
				return
			}
			f.emit(event{kind: evTaskErr, wc: wc, res: res})
		default:
			f.emit(event{kind: evDead, wc: wc, reason: fmt.Sprintf("unexpected frame type %d", t)})
			conn.Close()
			return
		}
	}
}

// runPhase executes one phase's tasks to completion. Leases go to idle
// live workers FIFO. A lost worker — its connection failed, or its lease
// expired — is quarantined and its in-flight task goes back on the queue at
// once for a survivor: each loss removes a worker for good, so a task is
// leased at most Workers times, and the phase fails when every worker is
// lost. A task error from a live worker fails the phase at once. It records the
// phase on ps, which its caller opened: the task count as a counter,
// scheduling values as gauges, and one child per task, started here in
// task order (a deterministic skeleton) and finished when the task's
// first result is accepted, or on the way out when the phase fails.
func (j *job) runPhase(ctx context.Context, ps *obs.Span, name string, tasks []*task) (stats PhaseStats, err error) {
	f, opts := j.fleet, j.opts
	start := time.Now()
	stats.Tasks = len(tasks)
	ps.Set("tasks", int64(len(tasks)))
	for _, t := range tasks {
		t.span = ps.Start("task:" + t.msg.ID)
	}
	defer func() {
		stats.Duration = time.Since(start)
		if name == "phase1" {
			reused := int64(0)
			if j.reused {
				reused = 1
			}
			ps.SetGauge("fleet_reused", reused)
		}
		ps.SetGauge("skipped", int64(stats.Skipped))
		ps.SetGauge("requeues", int64(stats.Requeues))
		ps.SetGauge("workers_lost", int64(stats.WorkersLost))
		for _, t := range tasks {
			t.span.SetGauge("attempts", int64(t.attempts))
			t.span.Finish()
		}
	}()
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	queue := slices.Clone(tasks)
	remaining := len(tasks)
	lastLoss := "" // the latest lost worker and why, for "all workers lost"

	// quarantine removes a worker from rotation (idempotent) and puts its
	// in-flight task, if any, back on the queue.
	quarantine := func(wc *workerConn, reason string) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if wc.quarantined {
			return
		}
		wc.quarantined = true
		stats.WorkersLost++
		lastLoss = fmt.Sprintf("worker %d: %s", wc.id, reason)
		wc.conn.Close()
		if t := wc.inflight; t != nil {
			stats.Requeues++
			queue = append(queue, t)
		}
		wc.inflight = nil
	}

	// assign leases queued tasks to idle live workers. Sends happen
	// outside the lock; a failed send is an immediate death signal.
	assign := func() {
		type lease struct {
			wc *workerConn
			t  *task
		}
		var leases []lease
		f.mu.Lock()
		// A kill plan promises something of every worker, so under one no
		// lease goes out before the fleet is complete: it names victims that
		// die at their first or second task — one slower to start than the
		// others are to finish would survive for want of work. A worker silent
		// for LeaseTimeout since the spawn is not waited for.
		if opts.Kill.Enabled() && f.connected < len(f.procs) && time.Since(f.started) < opts.LeaseTimeout {
			f.mu.Unlock()
			return
		}
		ids := make([]int, 0, len(f.workers))
		for id := range f.workers {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if len(queue) == 0 {
				break
			}
			wc := f.workers[id]
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
		f.mu.Unlock()
		for _, l := range leases {
			if err := l.wc.send(frameTask, l.t.msg); err != nil {
				f.emit(event{kind: evDead, wc: l.wc, reason: fmt.Sprintf("send: %v", err)})
			}
		}
	}

	ticker := time.NewTicker(heartbeatInterval)
	defer ticker.Stop()

	for remaining > 0 {
		assign()

		// No live workers and no process left to produce one: the
		// degradation ladder has run out of rungs.
		f.mu.Lock()
		live := 0
		for _, wc := range f.workers {
			if !wc.quarantined {
				live++
			}
		}
		allJoined := f.connected >= len(f.procs)
		f.mu.Unlock()
		if live == 0 && (allJoined || f.procsLive.Load() == 0) {
			return stats, fmt.Errorf("distnet: %s: all %d workers lost with %d tasks outstanding (last: %s)", name, len(f.procs), remaining, lastLoss)
		}

		select {
		case <-ctx.Done():
			return stats, ctx.Err()
		case <-ticker.C:
			// Lease audit: a worker holding a task whose heartbeats
			// stopped (without its socket dying) is hung — quarantine.
			var expired []*workerConn
			f.mu.Lock()
			for _, wc := range f.workers {
				if !wc.quarantined && wc.inflight != nil && time.Since(wc.lastBeat) > opts.LeaseTimeout {
					expired = append(expired, wc)
				}
			}
			f.mu.Unlock()
			for _, wc := range expired {
				quarantine(wc, "lease expired")
			}
		case ev := <-f.events:
			switch ev.kind {
			case evHello, evProcExit:
				// Roster changed; the next assign()/liveness check sees it.
			case evDone:
				f.mu.Lock()
				t := ev.wc.inflight
				if t != nil && t.msg.ID == ev.res.ID {
					ev.wc.inflight = nil
					ev.wc.lastBeat = time.Now()
					if !t.done {
						t.done = true
						t.result = ev.res
						t.span.SetGauge("worker", int64(ev.res.Worker))
						t.span.SetGauge("dur_ns", ev.res.DurNS)
						t.span.Finish()
						remaining--
						if ev.res.Skipped {
							stats.Skipped++
						}
					}
				}
				f.mu.Unlock()
			case evTaskErr:
				f.mu.Lock()
				t := ev.wc.inflight
				f.mu.Unlock()
				if t != nil && t.msg.ID == ev.res.ID {
					return stats, fmt.Errorf("distnet: %s: task %s on worker %d: %s", name, t.msg.ID, ev.wc.id, ev.res.Err)
				}
			case evDead:
				quarantine(ev.wc, ev.reason)
			}
		}
	}
	return stats, nil
}

// roster snapshots the worker fleet for Result.Workers, in id order: every
// process spawned, whether or not it had said hello by the time the
// campaign ended — a short campaign can be over before a slow starter
// joins, and the fleet's size must not depend on that race. Tasks are the
// current campaign's.
func (f *fleet) roster() []WorkerInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerInfo, len(f.procs))
	for id, cmd := range f.procs {
		out[id] = WorkerInfo{ID: id, PID: cmd.Process.Pid}
		if wc := f.workers[id]; wc != nil {
			out[id] = WorkerInfo{
				ID: wc.id, PID: wc.pid, Tasks: wc.tasks, Quarantined: wc.quarantined,
			}
		}
	}
	return out
}

// shutdown tears the fleet down: polite shutdown frames first — a
// quarantined worker, untrusted and perhaps hung, is killed instead — then
// the listener, then — after a short grace — SIGKILL for any worker process
// that didn't exit on its own, then the connections.
func (f *fleet) shutdown() {
	close(f.done)
	f.mu.Lock()
	conns := make([]*workerConn, 0, len(f.workers))
	for _, wc := range f.workers {
		conns = append(conns, wc)
	}
	f.mu.Unlock()
	for _, wc := range conns {
		if wc.quarantined {
			_ = f.procs[wc.id].Process.Kill()
		} else {
			_ = wc.send(frameShutdown, struct{}{})
		}
	}
	f.lis.Close()

	exited := make(chan struct{})
	go func() {
		f.procWG.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(3 * time.Second):
		for _, cmd := range f.procs {
			if cmd != nil && cmd.Process != nil {
				_ = cmd.Process.Kill()
			}
		}
		<-exited
	}

	f.stop() // closes every connection, and any handshake still waiting
	f.acceptWG.Wait()

	// Drain any events emitted between close(f.done) checks and now.
	for {
		select {
		case <-f.events:
		default:
			return
		}
	}
}
