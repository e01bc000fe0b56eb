package faults

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"testing"
	"time"
)

// RetryPolicy backoff schedules and KillSpec decisions are pure functions
// of their inputs: a resumed campaign's simulation retries sleep as the
// interrupted one's did, and a coordinator and its worker child processes
// agree on a kill plan without any shared state. These tests prove the
// property across a real process boundary — the test binary re-executes
// itself in a child mode that prints the schedules, and the parent
// compares them against in-process values.

const crossProcEnv = "M2TD_FAULTS_CROSSPROC_CHILD"

// TestMain intercepts the child mode before the test harness runs.
func TestMain(m *testing.M) {
	if os.Getenv(crossProcEnv) != "" {
		writeSchedules(os.Stdout)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeSchedules prints one line per (policy, key, attempt) backoff and
// per KillSpec decision, over a fixed probe grid.
func writeSchedules(w io.Writer) {
	for _, p := range probePolicies() {
		for _, key := range []uint64{0, 1, 0xdeadbeef, 1<<63 + 12345} {
			for attempt := 1; attempt <= 6; attempt++ {
				fmt.Fprintf(w, "backoff %d %d %d %d\n", p.MaxAttempts, key, attempt, int64(p.normalize().backoff(key, attempt)))
			}
		}
	}
	for _, k := range []KillSpec{{Seed: 1, Total: 4, Kills: 2}, {Seed: 99, Total: 7, Kills: 3}} {
		for w2 := 0; w2 < k.Total; w2++ {
			fmt.Fprintf(w, "kill %d %d %d %t %d\n", k.Seed, k.Total, w2, k.Doomed(w2), k.KillPoint(w2))
		}
	}
}

func probePolicies() []RetryPolicy {
	return []RetryPolicy{
		{}, // zero policy: exercises normalization defaults
		{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 64 * time.Millisecond, JitterFrac: 0.5},
		{MaxAttempts: 8, BaseBackoff: 3 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, JitterFrac: 0.1},
	}
}

func TestBackoffScheduleIdenticalAcrossProcesses(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), crossProcEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child process: %v", err)
	}
	var local bytes.Buffer
	writeSchedules(&local)
	if !bytes.Equal(out, local.Bytes()) {
		t.Fatalf("cross-process schedule drift:\nchild:\n%s\nlocal:\n%s", out, local.Bytes())
	}
	// Sanity: the comparison covered real content, not two empty outputs.
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		lines++
	}
	if lines < 80 {
		t.Fatalf("schedule probe suspiciously small: %d lines", lines)
	}
}

func TestBackoffPureFunction(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, JitterFrac: 0.25}
	for key := uint64(0); key < 64; key++ {
		for attempt := 1; attempt <= 6; attempt++ {
			a, b := p.backoff(key, attempt), p.backoff(key, attempt)
			if a != b {
				t.Fatalf("backoff(%d, %d) not stable: %v vs %v", key, attempt, a, b)
			}
			if a <= 0 {
				t.Fatalf("backoff(%d, %d) = %v, want > 0", key, attempt, a)
			}
			if max := time.Duration(float64(p.MaxBackoff) * (1 + p.JitterFrac)); a > max {
				t.Fatalf("backoff(%d, %d) = %v exceeds jittered cap %v", key, attempt, a, max)
			}
		}
	}
}
