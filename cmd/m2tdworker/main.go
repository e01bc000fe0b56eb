// Command m2tdworker is a standalone D-M2TD worker process for the
// multi-process engine (internal/distnet).
//
// It is normally spawned BY a coordinator, which passes its listen
// address and the worker id through the M2TD_DISTNET_* environment — in
// that mode any binary calling m2td.MaybeDistWorker works, and this
// command is the minimal one. Every task names its campaign's artifact
// catalog, so a worker serves one campaign after another, wherever their
// catalogs are.
//
// It can also be pointed at a coordinator explicitly, for running
// workers by hand (other machines' containers, debugging under strace):
//
//	m2tdworker -addr 127.0.0.1:7000 -id 3
//
// Flags mirror the environment; the environment wins when both are set.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	m2td "repro"
	"repro/internal/distnet"
)

func main() {
	// Coordinator-spawned mode: the environment says everything and
	// MaybeDistWorker never returns.
	m2td.MaybeDistWorker()

	var (
		addr = flag.String("addr", "", "coordinator address (required)")
		id   = flag.Int("id", 0, "worker id")
		beat = flag.Duration("beat", 250*time.Millisecond, "heartbeat period")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "m2tdworker: -addr is required (or the M2TD_DISTNET_* environment)")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := distnet.RunWorker(ctx, distnet.WorkerConfig{Addr: *addr, ID: *id, Beat: *beat})
	if err != nil {
		fmt.Fprintf(os.Stderr, "m2tdworker %d: %v\n", *id, err)
		os.Exit(1)
	}
}
