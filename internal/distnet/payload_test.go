package distnet

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/stitch"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// payloadFixture is a catalog as a coordinator leaves it before Phase 3 —
// both inputs, the fused factors — under root, beside a regular file named
// "file", and the job spec its tasks would carry.
func payloadFixture(t testing.TB) (root, dir string, spec jobSpec) {
	p := tinyPartition(t, 0.5, 233)
	root = t.TempDir()
	dir = filepath.Join(root, "catalog")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DecomposeFactored(p, core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	spec = jobSpec{Join: stitch.NewSpec(p, false), Sampled: core.SampledOf(p), Shards: 2}
	for _, err := range []error{
		st.SaveSparse(objSubs[0], p.Sub1.Tensor),
		st.SaveSparse(objSubs[1], p.Sub2.Tensor),
		st.SaveMatrices(objFactors, res.Factors),
		os.WriteFile(filepath.Join(root, "file"), nil, 0o644),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return root, dir, spec
}

// TestTaskPayloadRejected: what a well-framed task payload can get wrong
// is a task error — the coordinator re-leases and, out of attempts, fails
// the phase — never a worker crash or an index outside a tensor. A catalog
// that is not a directory is one such error: the worker creates none.
func TestTaskPayloadRejected(t *testing.T) {
	root, dir, spec := payloadFixture(t)
	with := func(mutate func(*taskMsg)) taskMsg {
		// Slices are copied: a case that edits the spec edits its own.
		task := taskMsg{ID: "t", Kind: taskProject, Dir: dir, Job: "j", Spec: spec}
		task.Spec.Join.Shape = append(tensor.Shape(nil), spec.Join.Shape...)
		task.Spec.Join.Pivots = append([]int(nil), spec.Join.Pivots...)
		mutate(&task)
		return task
	}
	absent := filepath.Join(root, "absent")
	for name, task := range map[string]taskMsg{
		"unknown kind":         with(func(m *taskMsg) { m.Kind = "reduce" }),
		"no kind":              with(func(m *taskMsg) { m.Kind = "" }),
		"shard = shards":       with(func(m *taskMsg) { m.Shard = 2 }),
		"negative shard":       with(func(m *taskMsg) { m.Shard = -1 }),
		"no shards":            with(func(m *taskMsg) { m.Spec.Shards = 0 }),
		"retired kind stitch":  with(func(m *taskMsg) { m.Kind = "stitch" }),
		"retired kind core":    with(func(m *taskMsg) { m.Kind = "core" }),
		"shard > shards":       with(func(m *taskMsg) { m.Shard = 7 }),
		"pivot outside shape":  with(func(m *taskMsg) { m.Spec.Join.Pivots[0] = 9 }),
		"pivot listed twice":   with(func(m *taskMsg) { m.Spec.Join.Pivots = append(m.Spec.Join.Pivots, m.Spec.Join.Free1[0]) }),
		"pivot < 0":            with(func(m *taskMsg) { m.Spec.Join.Pivots[0] = -1 }),
		"shape too large":      with(func(m *taskMsg) { m.Spec.Join.Shape[m.Spec.Join.Pivots[0]]++ }),
		"shape too short":      with(func(m *taskMsg) { m.Spec.Join.Shape = m.Spec.Join.Shape[:3] }),
		"empty spec":           with(func(m *taskMsg) { m.Spec.Join = stitch.Spec{} }),
		"factor, sub-tensor 3": with(func(m *taskMsg) { m.Kind, m.Kappa, m.Rank = taskFactor, 3, 1 }),
		"factor, mode 3 of 3":  with(func(m *taskMsg) { m.Kind, m.Kappa, m.Mode, m.Rank = taskFactor, 1, 3, 1 }),
		"factor, rank 0":       with(func(m *taskMsg) { m.Kind, m.Kappa = taskFactor, 1 }),
		"factor, rank > size":  with(func(m *taskMsg) { m.Kind, m.Kappa, m.Rank = taskFactor, 2, 6 }),
		"output name escapes":  with(func(m *taskMsg) { m.Job = "../out" }),
		"no catalog":           with(func(m *taskMsg) { m.Dir = absent }),
		"factor, no catalog":   with(func(m *taskMsg) { m.Kind, m.Kappa, m.Rank, m.Dir = taskFactor, 1, 2, absent }),
		"catalog is a file":    with(func(m *taskMsg) { m.Dir = filepath.Join(root, "file") }),
		"catalog unnamed":      with(func(m *taskMsg) { m.Dir = "" }),
		"catalog without data": with(func(m *taskMsg) { m.Dir = root }),
	} {
		w := &workerState{}
		if _, err := w.exec(context.Background(), task); err == nil {
			t.Errorf("%s: task executed", name)
		}
	}
	if _, err := os.Stat(absent); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a task naming a missing catalog left %s behind (stat: %v)", absent, err)
	}
	for _, kind := range []string{taskFactor, taskProject} {
		// More shards than pivot keys is a valid job (most shards are empty),
		// whatever the count: nothing on the way to the shard's cells adds to it.
		for _, shards := range []int{spec.Shards, math.MaxInt} {
			w := &workerState{}
			task := with(func(m *taskMsg) {
				m.Kind, m.Kappa, m.Rank, m.ID = kind, 1, 2, fmt.Sprintf("out-%s-%d", kind, shards)
				m.Shard, m.Spec.Shards = shards-1, shards
			})
			if res, err := w.exec(context.Background(), task); err != nil || res.Skipped || !w.outputDurable(task) {
				t.Errorf("valid %s task, shard %d of %d: result %+v, error %v", kind, task.Shard, shards, res, err)
			}
		}
	}
}

// FuzzTaskPayload feeds arbitrary JSON to the two payload decoders inside a
// valid frame — a task as runWorker decodes and executes it, a result as
// the coordinator's readLoop decodes it. Whatever decodes must execute to a
// result or a task error: no panic, no index outside a tensor; the fields
// the shard selection divides and indexes by are checked first. A task's
// catalog is taken relative to the fixture's root (outside it, the task is
// skipped): a catalog that did not exist still does not afterwards.
func FuzzTaskPayload(f *testing.F) {
	root, _, spec := payloadFixture(f)
	for _, task := range []taskMsg{
		{ID: "p1-k1-m0", Kind: taskFactor, Kappa: 1, Rank: 2, Dir: "catalog", Job: "j", Spec: spec},
		{ID: "p2-j0", Kind: "stitch", Dir: "catalog", Job: "j", Spec: spec}, // retired kinds: task errors
		{ID: "p3-c0", Kind: "core", Dir: "catalog", Job: "j", Spec: spec},
		{ID: "p3-g1", Kind: taskProject, Shard: 1, Dir: "catalog", Job: "j", Spec: spec},
		{ID: "p3-g2", Kind: taskProject, Shard: 2, Dir: "catalog", Job: "j", Spec: spec},
		{ID: "p3-g0", Kind: taskProject, Dir: "catalog", Job: "j", Spec: jobSpec{Join: spec.Join, Shards: 2}}, // no sampled grid: no side complete
		{ID: "p3-g3", Kind: taskProject, Shard: math.MaxInt - 1, Dir: "catalog", Job: "j", Spec: jobSpec{Join: spec.Join, Sampled: spec.Sampled, Shards: math.MaxInt}},
		{ID: "p1-k2-m1", Kind: taskFactor, Kappa: 2, Mode: 1, Rank: 2, Dir: "absent", Job: "j", Spec: spec}, // no such catalog
		{ID: "p1-k2-m1", Kind: taskFactor, Kappa: 2, Mode: 1, Rank: 2, Dir: "file", Job: "j", Spec: spec},   // not a directory
		{ID: "p1-k2-m1", Kind: taskFactor, Kappa: 2, Mode: 1, Rank: 2, Dir: "", Job: "j", Spec: spec},       // the root: no inputs
		{ID: "p1-k2-m1", Kind: taskFactor, Kappa: 2, Mode: 1, Rank: 2, Dir: "absent/deeper", Job: "j", Spec: spec},
		{ID: "x", Kind: "reduce", Job: "x"},
	} {
		payload, err := json.Marshal(task)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{"id":"p3-g0","kind":"project","dir":"catalog","job":"j","spec":{"join":{"shape":[5,5,5,5,4],"pivots":[7],"free1":[0,2],"free2":[1,3]},"shards":2}}`))
	f.Add([]byte(`{"id":"p3-g0","kind":"project","dir":"catalog","job":"j","spec":{"join":{"shape":[5,5],"pivots":[4],"free1":[0,2],"free2":[1,3]},"shards":-3}}`))
	f.Add([]byte(`{"id":"p1-k1-m0","kind":"factor","kappa":1,"rank":2,"dir":"../catalog","job":"j"}`))
	f.Add([]byte(`{"id":"p3-g1","kind":"project","shard":1,"dir":"catalog","job":"q","spec":{"join":{"shape":[5,5,5,5,4],"pivots":[4],"free1":[0,2],"free2":[1,3]},"shards":2,"reject_non_finite":true}}`)) // a retired field
	f.Add([]byte(`{"id":"p1-k1-m0","worker":1,"skipped":true,"dur_ns":12}`))
	f.Add([]byte(`{"id":7}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var res resultMsg
		_ = json.Unmarshal(payload, &res)

		var task taskMsg
		if json.Unmarshal(payload, &task) != nil {
			return
		}
		task.Dir = filepath.Join(root, task.Dir)
		if !strings.HasPrefix(task.Dir+string(filepath.Separator), root+string(filepath.Separator)) {
			return // outside the fixture
		}
		if slices.Contains([]string{objSubs[0], objSubs[1], objFactors}, task.out()) {
			return // would overwrite the fixture under the iterations that follow
		}
		_, statErr := os.Stat(task.Dir)
		w := &workerState{}
		out, err := w.exec(context.Background(), task)
		if _, after := os.Stat(task.Dir); errors.Is(statErr, os.ErrNotExist) && after == nil {
			t.Fatalf("task %q created its catalog %s", task.ID, task.Dir)
		}
		switch {
		case err != nil:
		case task.Kind != taskFactor && task.Kind != taskProject:
			t.Fatalf("executed a task of kind %q", task.Kind)
		case task.Kind == taskProject && (task.Spec.Shards < 1 || task.Shard < 0 || task.Shard >= task.Spec.Shards):
			t.Fatalf("executed shard %d of %d", task.Shard, task.Spec.Shards)
		case out.ID != task.ID || !w.outputDurable(task):
			t.Fatalf("task %q reported done (%+v) without a durable output %q", task.ID, out, task.out())
		}
	})
}

// partialShape is a job's core shape, what a Phase 3 partial spans.
var partialShape = tensor.Shape{2, 2, 3}

// partialFixtures are an intact and a holey shard's partial at
// partialShape, and one with the largest count partialOf takes.
func partialFixtures() (intact, holey, most core.Partial) {
	g := tensor.NewDense(partialShape)
	for i := range g.Data {
		g.Data[i] = float64(i) + 0.5
	}
	return core.Partial{G: g}, core.Partial{G: g, Holey: 3}, core.Partial{G: g, Holey: math.MaxInt32}
}

// counts is a counts row for corruptPartials.
func counts(vs ...float64) *mat.Matrix { return &mat.Matrix{Rows: 1, Cols: len(vs), Data: vs} }

// corruptPartials are Phase 3 objects partialOf must refuse, made from a
// holey shard's. The "two counts" rows are the retired layout, whose
// counts row was [holey, rejected].
var corruptPartials = map[string]func(ms []*mat.Matrix) []*mat.Matrix{
	"one matrix":     func(ms []*mat.Matrix) []*mat.Matrix { return ms[:1] },
	"three matrices": func(ms []*mat.Matrix) []*mat.Matrix { return append(ms, ms[1]) },
	"short core": func(ms []*mat.Matrix) []*mat.Matrix {
		ms[0] = &mat.Matrix{Rows: 1, Cols: 11, Data: ms[0].Data[:11]}
		return ms
	},
	"long core": func(ms []*mat.Matrix) []*mat.Matrix {
		ms[0] = counts(append(slices.Clone(ms[0].Data), 0.5)...)
		return ms
	},
	"counts first":         func(ms []*mat.Matrix) []*mat.Matrix { ms[0], ms[1] = ms[1], ms[0]; return ms },
	"no counts":            func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(); return ms },
	"two counts, intact":   func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(0, 0); return ms },
	"two counts, holey":    func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(3, 0); return ms },
	"two counts, rejected": func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(3, 2); return ms },
	"two counts, no holes": func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(0, 1); return ms },
	"three counts":         func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(3, 0, 1); return ms },
	"holey -1":             func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(-1); return ms },
	"holey -0":             func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(math.Copysign(0, -1)); return ms },
	"holey 1.5":            func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(1.5); return ms },
	"holey NaN":            func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(math.NaN()); return ms },
	"holey 1e300":          func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(1e300); return ms },
	"holey +Inf":           func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(math.Inf(1)); return ms },
	"holey 2³¹":            func(ms []*mat.Matrix) []*mat.Matrix { ms[1] = counts(1 << 31); return ms },
}

// TestPartialObjectChecked: a Phase 3 object is the core-sized partial and
// a one-count row [holey]; the coordinator takes neither another shape of
// object — the retired [holey, rejected] row included — nor a partial
// whose length is not the product of the ranks its job clipped, nor a
// count that is not an integer in [0, MaxInt32], and what it takes
// round-trips.
func TestPartialObjectChecked(t *testing.T) {
	intact, holey, most := partialFixtures()
	for name, want := range map[string]core.Partial{"intact": intact, "holey": holey, "most holes": most} {
		ms := partialMatrices(want)
		if len(ms) != 2 || len(ms[1].Data) != 1 {
			t.Fatalf("%s: object is %d matrices, counts row %v; want the core and one count", name, len(ms), ms[len(ms)-1].Data)
		}
		got, err := partialOf(ms, partialShape)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Holey != want.Holey || !got.G.Equal(want.G, 0) {
			t.Fatalf("%s: partial did not round-trip: %+v", name, got)
		}
	}
	for name, mutate := range corruptPartials {
		if _, err := partialOf(mutate(partialMatrices(holey)), partialShape); err == nil {
			t.Errorf("%s: object accepted", name)
		}
	}
}

// matrixBytes is the fuzz form of a matrix list: per matrix a rows byte, a
// cols byte, then rows·cols little-endian float64s.
func matrixBytes(ms []*mat.Matrix) []byte {
	var b []byte
	for _, m := range ms {
		b = append(b, byte(m.Rows), byte(m.Cols))
		for _, v := range m.Data {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// matricesOf reads matrixBytes' form back; a truncated matrix ends the list.
func matricesOf(b []byte) []*mat.Matrix {
	var ms []*mat.Matrix
	for len(b) >= 2 {
		m := mat.New(int(b[0]), int(b[1]))
		if b = b[2:]; len(b) < 8*len(m.Data) {
			break
		}
		for i := range m.Data {
			m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		ms, b = append(ms, m), b[8*len(m.Data):]
	}
	return ms
}

// FuzzPhaseArtifact feeds arbitrary matrix lists, as a CRC-valid store
// object holds them, to the checks the coordinator reads phase outputs
// through: checkPhase1 (for a mode of size 4 at rank 2) and partialOf (at
// partialShape). Neither may panic, and a Phase 3 list partialOf accepts
// is the core and one count — never the retired [holey, rejected] row —
// and re-encodes through partialMatrices to the same values.
func FuzzPhaseArtifact(f *testing.F) {
	gram, factor := mat.New(4, 4), mat.New(4, 2)
	for _, ms := range [][]*mat.Matrix{
		{gram, factor},
		{gram, mat.New(3, 2)}, // a factor one row short
		{mat.New(3, 3), factor},
		{gram, factor, factor},
	} {
		f.Add(matrixBytes(ms))
	}
	intact, holey, most := partialFixtures()
	for _, part := range []core.Partial{intact, holey, most} {
		f.Add(matrixBytes(partialMatrices(part)))
	}
	for _, mutate := range corruptPartials {
		f.Add(matrixBytes(mutate(partialMatrices(holey))))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		ms := matricesOf(b)
		_ = checkPhase1(ms, 4, 2)
		part, err := partialOf(ms, partialShape)
		if err != nil {
			return
		}
		if len(ms) != 2 || len(ms[1].Data) != 1 {
			t.Fatalf("accepted %d matrices, counts row %v; want the core and one count", len(ms), ms[len(ms)-1].Data)
		}
		again := partialMatrices(part)
		if len(again) != len(ms) {
			t.Fatalf("%d matrices accepted, %d re-encoded", len(ms), len(again))
		}
		for i := range ms {
			if !slices.EqualFunc(again[i].Data, ms[i].Data, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("matrix %d re-encodes to %v, was %v", i, again[i].Data, ms[i].Data)
			}
		}
	})
}
