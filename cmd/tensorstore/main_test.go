package main

import (
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/tensor"
)

func testStoreWith(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPutListInfoDeleteFlow(t *testing.T) {
	st := testStoreWith(t)
	if err := put(st, []string{"-name", "ens", "-system", "lorenz", "-res", "4", "-samples", "2", "-budget", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := ls(st); err != nil {
		t.Fatal(err)
	}
	if err := info(st, []string{"-name", "ens"}); err != nil {
		t.Fatal(err)
	}
	if err := decompose(st, []string{"-name", "ens", "-out", "dec", "-rank", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := decompose(st, []string{"-name", "ens", "-out", "dec2", "-rank", "2", "-hooi"}); err != nil {
		t.Fatal(err)
	}
	// A bad rank is an error naming it, and stores nothing (see names below).
	if err := decompose(st, []string{"-name", "ens", "-out", "bad", "-rank", "-1"}); err == nil || !strings.Contains(err.Error(), "Rank") {
		t.Fatalf("-rank -1: want an error naming the rank, got %v", err)
	}
	if err := info(st, []string{"-name", "dec"}); err != nil {
		t.Fatal(err)
	}
	if err := dump(st, []string{"-name", "ens"}); err != nil {
		t.Fatal(err)
	}
	if err := rm(st, []string{"-name", "ens"}); err != nil {
		t.Fatal(err)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "dec" {
		t.Fatalf("names after rm = %v", names)
	}
}

func TestCommandsRequireNames(t *testing.T) {
	st := testStoreWith(t)
	for name, fn := range map[string]func() error{
		"put":       func() error { return put(st, nil) },
		"info":      func() error { return info(st, nil) },
		"dump":      func() error { return dump(st, nil) },
		"decompose": func() error { return decompose(st, []string{"-name", "x"}) },
		"rm":        func() error { return rm(st, nil) },
	} {
		if err := fn(); err == nil {
			t.Errorf("%s without required flags accepted", name)
		}
	}
}

func TestPutRejectsBadInputs(t *testing.T) {
	st := testStoreWith(t)
	if err := put(st, []string{"-name", "x", "-system", "bogus"}); err == nil {
		t.Fatal("unknown system accepted")
	}
	if err := put(st, []string{"-name", "x", "-scheme", "bogus"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestInfoUnknownKind(t *testing.T) {
	st := testStoreWith(t)
	if err := info(st, []string{"-name", "missing"}); err == nil {
		t.Fatal("missing object accepted")
	}
	if !strings.Contains(infoErrText(st), "cannot read") {
		// sanity that the error path formats; best-effort
		t.Skip()
	}
}

func infoErrText(st *store.Store) string {
	err := info(st, []string{"-name", "missing"})
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestDecomposeMissingInput(t *testing.T) {
	st := testStoreWith(t)
	if err := decompose(st, []string{"-name", "missing", "-out", "o"}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestDumpRoundtripValues(t *testing.T) {
	st := testStoreWith(t)
	sp := tensor.NewSparse(tensor.Shape{2, 2})
	sp.Append([]int{1, 0}, 2.5)
	if err := st.SaveSparse("tiny", sp); err != nil {
		t.Fatal(err)
	}
	if err := dump(st, []string{"-name", "tiny"}); err != nil {
		t.Fatal(err)
	}
}

func TestImportRoundtrip(t *testing.T) {
	st := testStoreWith(t)
	csvData := "mode0,mode1,value\n0,1,2.5\n2,0,-1\n"
	if err := importCmd(st, []string{"-name", "imp", "-shape", "3,2"}, strings.NewReader(csvData)); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadSparse("imp")
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 2 {
		t.Fatalf("NNZ = %d", got.NNZ())
	}
	d := got.ToDense()
	if d.At(0, 1) != 2.5 || d.At(2, 0) != -1 {
		t.Fatalf("values = %v", d.Data)
	}
}

// TestPutReproducible pins the put command's byte-for-byte guarantee:
// the counter-based sampler makes the stored tensor a pure function of
// the seed.
func TestPutReproducible(t *testing.T) {
	stA, stB := testStoreWith(t), testStoreWith(t)
	args := []string{"-name", "ens", "-system", "lorenz", "-res", "4", "-samples", "2", "-budget", "10", "-seed", "7"}
	if err := put(stA, args); err != nil {
		t.Fatal(err)
	}
	if err := put(stB, args); err != nil {
		t.Fatal(err)
	}
	a, err := stA.LoadSparse("ens")
	if err != nil {
		t.Fatal(err)
	}
	b, err := stB.LoadSparse("ens")
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != b.NNZ() || a.Norm() != b.Norm() {
		t.Fatalf("same-seed puts differ: %d/%g vs %d/%g", a.NNZ(), a.Norm(), b.NNZ(), b.Norm())
	}
	// A different seed must sample a different set.
	stC := testStoreWith(t)
	argsC := append(append([]string(nil), args[:len(args)-1]...), "8")
	if err := put(stC, argsC); err != nil {
		t.Fatal(err)
	}
	c, err := stC.LoadSparse("ens")
	if err != nil {
		t.Fatal(err)
	}
	if a.Norm() == c.Norm() {
		t.Fatal("seed 7 and seed 8 sampled identical ensembles")
	}
}

func TestImportValidation(t *testing.T) {
	st := testStoreWith(t)
	if err := importCmd(st, nil, strings.NewReader("")); err == nil {
		t.Fatal("missing flags accepted")
	}
	if err := importCmd(st, []string{"-name", "x", "-shape", "0,2"}, strings.NewReader("")); err == nil {
		t.Fatal("bad shape accepted")
	}
	if err := importCmd(st, []string{"-name", "x", "-shape", "2,2"}, strings.NewReader("9,0,1\n")); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := importCmd(st, []string{"-name", "x", "-shape", "2,2"}, strings.NewReader("0,0\n")); err == nil {
		t.Fatal("short row accepted")
	}
	if err := importCmd(st, []string{"-name", "x", "-shape", "2,2"}, strings.NewReader("0,0,zap\n")); err == nil {
		t.Fatal("bad value accepted")
	}
}
