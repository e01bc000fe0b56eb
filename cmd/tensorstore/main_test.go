package main

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
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

// TestPutReproducible pins the put command's byte-for-byte guarantee: a
// math/rand source seeded with -seed replays the same stream, so the stored
// tensor is a pure function of the seed — the ensemble ensemble.Sample
// draws from that source, as simgen -ensemble and BaselineCtx do.
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
	sparseEqual(t, "same-seed puts", a, b)
	sys, err := dynsys.ByName("lorenz")
	if err != nil {
		t.Fatal(err)
	}
	space := ensemble.NewSpace(sys, 4, 2)
	sims, err := ensemble.Sample(space, "random", 10, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	se, _, err := ensemble.EncodeCtx(context.Background(), space, sims, ensemble.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sparseEqual(t, "put and the seeded sample", a, se.Tensor)
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

// sparseEqual fails the test unless a and b hold the same shape and the
// same entries, bit for bit, in the same order.
func sparseEqual(t *testing.T, name string, a, b *tensor.Sparse) {
	t.Helper()
	if !a.Shape.Equal(b.Shape) || !slices.Equal(a.Idx, b.Idx) || len(a.Vals) != len(b.Vals) {
		t.Fatalf("%s: shapes %v/%v, %d/%d entries", name, a.Shape, b.Shape, a.NNZ(), b.NNZ())
	}
	for e, v := range a.Vals {
		if math.Float64bits(v) != math.Float64bits(b.Vals[e]) {
			t.Fatalf("%s: entry %d = %v vs %v", name, e, v, b.Vals[e])
		}
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
	for _, c := range []struct{ what, body, row string }{
		{"out-of-range index", "9,0,1\n", "row 1"},
		{"short row", "0,0\n", "row 1"},
		{"bad value", "0,0,zap\n", "row 1"},
		{"NaN", "0,0,NaN\n", "row 1"},
		{"+Inf", "i,j,value\n0,1,+Inf\n", "row 2"},
		{"-Inf", "1,0,2.5\n1,1,-Inf\n", "row 2"},
		{"nan", "0,0,1\n1,1,0.5\n0,1,nan\n", "row 3"},
	} {
		err := importCmd(st, []string{"-name", "x", "-shape", "2,2"}, strings.NewReader(c.body))
		if err == nil || !strings.Contains(err.Error(), c.row) {
			t.Fatalf("%s: error %v, want one naming %s", c.what, err, c.row)
		}
		if names, _ := st.List(); slices.Contains(names, "x") {
			t.Fatalf("%s: refused, yet stored", c.what)
		}
	}
}

// FuzzImportCSV: whatever the CSV body, import either fails or stores a
// tensor every kernel can take — finite values, indices inside the shape —
// and never panics.
func FuzzImportCSV(f *testing.F) {
	for _, body := range []string{
		"i,j,k,value\n0,0,0,1.5\n2,3,1,-0.5\n",
		"0,0,0,NaN\n", "1,1,1,+Inf\n", "2,0,1,-inf\n", "0,3,0,nan\n", "0,0,0,1e200\n",
		"2,3,1,1e-300\n0,0\n", "\"0\",1,1,2\n", "3,0,0,1\n", "-1,0,0,1\n", "",
	} {
		f.Add(body)
	}
	shape := tensor.Shape{3, 4, 2}
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body string) {
		_ = st.Delete("x")
		if err := importCmd(st, []string{"-name", "x", "-shape", "3,4,2"}, strings.NewReader(body)); err != nil {
			return
		}
		x, err := st.LoadSparse("x")
		if err != nil {
			t.Fatalf("imported, then: %v", err)
		}
		if !slices.Equal(x.Shape, shape) {
			t.Fatalf("stored shape %v, want %v", x.Shape, shape)
		}
		for e := 0; e < x.NNZ(); e++ {
			idx, v := x.Entry(e)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("cell %v stored %v", idx, v)
			}
			for k, i := range idx {
				if i < 0 || i >= shape[k] {
					t.Fatalf("cell %v outside shape %v", idx, shape)
				}
			}
		}
	})
}
