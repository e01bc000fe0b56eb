package distnet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Worker processes outlive the campaign. A campaign leases a fleet whose
// spawn signature matches its options and hands it back when it is done;
// only a process's first campaign per signature pays for spawning the
// workers, waiting for their hellos and reaping them.

// fleetIdle is how long a pooled fleet waits for its next campaign before
// it shuts itself down.
const fleetIdle = 30 * time.Second

// pool holds at most one idle fleet per spawn signature.
var pool = struct {
	mu   sync.Mutex
	idle map[string]*fleet
}{idle: make(map[string]*fleet)}

// signature is the pool key: everything a worker process is started with —
// its command line, the fleet's size and the listen address. It is "" — a
// dedicated fleet, shut down after its one campaign — under a kill plan or
// WorkerEnv, whose chaos and test hooks doom or sabotage workers, and on a
// fixed listen port, which a pooled fleet would hold against every other
// signature.
func signature(opts Options, argv []string) string {
	if _, port, err := net.SplitHostPort(opts.Addr); err != nil || (port != "" && port != "0") {
		return ""
	}
	if opts.Kill.Enabled() || len(opts.WorkerEnv) > 0 {
		return ""
	}
	return fmt.Sprintf("%q|%d|%s", argv, opts.Workers, opts.Addr)
}

// checkout leases a fleet for one campaign: the pooled one of its
// signature, if no worker of it died while it waited, else a new one.
// reused says which.
func checkout(ctx context.Context, opts Options) (f *fleet, reused bool, err error) {
	argv, err := workerArgv(opts)
	if err != nil {
		return nil, false, err
	}
	sig := signature(opts, argv)
	if sig != "" {
		pool.mu.Lock()
		f = pool.idle[sig]
		delete(pool.idle, sig)
		pool.mu.Unlock()
	}
	if f != nil {
		// A timer that already fired is a fleet on its way out: its expire
		// finds it gone from the pool, and it is shut down here.
		if f.idle.Stop() && f.intact() {
			f.mu.Lock()
			for _, wc := range f.workers {
				wc.tasks = 0
			}
			f.mu.Unlock()
			return f, true, nil
		}
		f.shutdown()
	}
	f, err = newFleet(ctx, opts, argv, sig)
	return f, false, err
}

// intact reports whether a fleet that waited in the pool can serve: no
// worker hung up or exited meanwhile — a stale evDead or evProcExit, or
// fewer processes live than spawned.
func (f *fleet) intact() bool {
	for {
		select {
		case ev := <-f.events:
			if ev.kind != evHello {
				return false
			}
		default:
			return f.procsLive.Load() == int32(len(f.procs))
		}
	}
}

// release hands a fleet back after its campaign. The fleet of a clean
// campaign — no worker lost, no error or cancellation — all of whose workers have joined waits in the pool for
// fleetIdle, unless the pool already holds one of its signature; every
// other fleet is shut down.
func release(f *fleet, clean bool) {
	f.mu.Lock()
	joined := f.connected == len(f.procs)
	f.mu.Unlock()
	if f.sig != "" && clean && joined {
		pool.mu.Lock()
		if pool.idle[f.sig] == nil {
			pool.idle[f.sig] = f
			f.idle = time.AfterFunc(fleetIdle, f.expire)
			pool.mu.Unlock()
			return
		}
		pool.mu.Unlock()
	}
	f.shutdown()
}

// expire is the idle shutdown: a fleet still waiting in the pool leaves it
// and shuts down. One checked out meanwhile is its campaign's.
func (f *fleet) expire() {
	pool.mu.Lock()
	waiting := pool.idle[f.sig] == f
	if waiting {
		delete(pool.idle, f.sig)
	}
	pool.mu.Unlock()
	if waiting {
		f.shutdown()
	}
}
