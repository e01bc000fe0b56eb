package faults

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"testing"
)

// KillSpec decisions are pure functions of their inputs: a coordinator
// and its worker child processes agree on a kill plan without any shared
// state. This test proves the property across a real process boundary —
// the test binary re-executes itself in a child mode that prints the
// decisions, and the parent compares them against in-process values.

const crossProcEnv = "M2TD_FAULTS_CROSSPROC_CHILD"

// TestMain intercepts the child mode before the test harness runs.
func TestMain(m *testing.M) {
	if os.Getenv(crossProcEnv) != "" {
		writeSchedules(os.Stdout)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeSchedules prints one line per KillSpec decision over a fixed
// probe grid.
func writeSchedules(w io.Writer) {
	for _, k := range []KillSpec{{Seed: 1, Total: 4, Kills: 2}, {Seed: 99, Total: 7, Kills: 3}} {
		for w2 := 0; w2 < k.Total; w2++ {
			fmt.Fprintf(w, "kill %d %d %d %t %d\n", k.Seed, k.Total, w2, k.Doomed(w2), k.KillPoint(w2))
		}
	}
}

func TestKillScheduleIdenticalAcrossProcesses(t *testing.T) {
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
	if lines != 4+7 {
		t.Fatalf("schedule probe printed %d lines, want one per worker (11)", lines)
	}
}
