package core_test

import (
	"path/filepath"
	"strings"
	"testing"

	"gapbench/internal/core"
	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/testutil"
)

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertSameCSR requires every raw CSR array of the two graphs to be
// element-identical — the mmap views must expose exactly the bytes the heap
// build produced.
func assertSameCSR(t *testing.T, name string, heap, mapped *graph.Graph) {
	t.Helper()
	hoi, hon := heap.RawOut()
	moi, mon := mapped.RawOut()
	if !int64sEqual(hoi, moi) || !int32sEqual(hon, mon) {
		t.Fatalf("%s: out-CSR differs between heap and mmap", name)
	}
	hii, hin := heap.RawIn()
	mii, min := mapped.RawIn()
	if !int64sEqual(hii, mii) || !int32sEqual(hin, min) {
		t.Fatalf("%s: in-CSR differs between heap and mmap", name)
	}
	if !int32sEqual(heap.RawOutWeights(), mapped.RawOutWeights()) ||
		!int32sEqual(heap.RawInWeights(), mapped.RawInWeights()) {
		t.Fatalf("%s: weights differ between heap and mmap", name)
	}
}

// TestHeapVsMmapDifferential is the end-to-end storage-backend differential:
// every suite graph is generated (heap arena), saved in format v2, and
// reloaded through the mmap path; the CSR arrays must be identical and the
// reference framework must pass oracle verification on all six kernels over
// both backends.
func TestHeapVsMmapDifferential(t *testing.T) {
	dir := t.TempDir()
	ref := core.Frameworks()[0]
	r := core.NewRunner()
	r.Trials = 1
	defer r.Close()

	for _, spec := range core.DefaultSuite(6) {
		g, err := generate.ByName(spec.Name, spec.Scale, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, core.GraphFileName(spec, "sg"))
		if err := g.SaveSG(path); err != nil {
			t.Fatalf("%s: SaveSG: %v", spec.Name, err)
		}
		m, err := graph.Load(path)
		if err != nil {
			t.Fatalf("%s: Load: %v", spec.Name, err)
		}
		if !m.Arena().Mapped() {
			t.Fatalf("%s: loaded graph is not mmap-backed", spec.Name)
		}
		if g.Epoch() != m.Epoch() {
			t.Errorf("%s: epoch %#x (saved) != %#x (loaded)", spec.Name, g.Epoch(), m.Epoch())
		}
		assertSameCSR(t, spec.Name, g, m)

		heapIn := core.PrepareInput(spec, g)
		mmapIn := core.PrepareInput(spec, m)
		mmapIn.File = path
		for _, k := range core.Kernels {
			hres := r.RunCell(ref, k, heapIn, kernel.Baseline)
			mres := r.RunCell(ref, k, mmapIn, kernel.Baseline)
			if hres.Status != core.OK || !hres.Verified {
				t.Errorf("%s/%s heap: status %v (%s)", spec.Name, k, hres.Status, hres.Err)
			}
			if mres.Status != core.OK || !mres.Verified {
				t.Errorf("%s/%s mmap: status %v (%s)", spec.Name, k, mres.Status, mres.Err)
			}
			if mres.GraphFile != path || mres.GraphEpoch != m.Epoch() {
				t.Errorf("%s/%s: result identity (%q, %#x), want (%q, %#x)",
					spec.Name, k, mres.GraphFile, mres.GraphEpoch, path, m.Epoch())
			}
		}
		if err := mmapIn.Close(); err != nil {
			t.Errorf("%s: closing mmap input: %v", spec.Name, err)
		}
		if err := heapIn.Close(); err != nil {
			t.Errorf("%s: closing heap input: %v", spec.Name, err)
		}
	}
}

// TestResumeRefusesMismatchedInput journals a cell against one input, then
// attempts to resume against an input with the same suite name but different
// contents (and a different file) — the runner must refuse rather than mix
// measurements across inputs.
func TestResumeRefusesMismatchedInput(t *testing.T) {
	dir := t.TempDir()
	ref := core.Frameworks()[0]
	spec := core.GraphSpec{Name: generate.NameKron, Scale: 6, Seed: 3, Delta: 16, SourceSeed: 9}

	build := func(scale int, file string) *core.Input {
		g, err := generate.ByName(spec.Name, scale, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, file)
		if err := g.SaveSG(path); err != nil {
			t.Fatal(err)
		}
		m, err := graph.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		in := core.PrepareInput(spec, m)
		in.File = path
		return in
	}

	journal := filepath.Join(dir, "run.jsonl")
	r := core.NewRunner()
	r.Trials = 1
	r.Verify = false
	r.JournalPath = journal
	defer r.Close()

	in1 := build(6, "a.sg")
	if _, err := r.RunSuite([]kernel.Framework{ref}, []*core.Input{in1},
		[]kernel.Mode{kernel.Baseline}, []core.Kernel{core.BFS}, nil); err != nil {
		t.Fatal(err)
	}

	// Same file name, different graph (regenerated in place at a larger
	// scale): resume must refuse on epoch.
	r2 := core.NewRunner()
	r2.Trials = 1
	r2.Verify = false
	r2.JournalPath = journal
	r2.Resume = true
	defer r2.Close()
	in2 := build(7, "a.sg")
	_, err := r2.RunSuite([]kernel.Framework{ref}, []*core.Input{in2},
		[]kernel.Mode{kernel.Baseline}, []core.Kernel{core.BFS}, nil)
	if err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("resume with changed input: err = %v, want epoch refusal", err)
	}

	// Identical graph, different file name: refuse on the file.
	in3 := build(6, "c.sg")
	_, err = r2.RunSuite([]kernel.Framework{ref}, []*core.Input{in3},
		[]kernel.Mode{kernel.Baseline}, []core.Kernel{core.BFS}, nil)
	if err == nil || !strings.Contains(err.Error(), "a.sg") {
		t.Fatalf("resume with renamed input: err = %v, want file refusal", err)
	}

	// The genuine original resumes cleanly.
	in4 := build(6, "a.sg")
	res, err := r2.RunSuite([]kernel.Framework{ref}, []*core.Input{in4},
		[]kernel.Mode{kernel.Baseline}, []core.Kernel{core.BFS}, nil)
	if err != nil {
		t.Fatalf("resume with matching input: %v", err)
	}
	if len(res) != 1 || !res[0].Resumed {
		t.Fatalf("matching resume did not replay the journaled cell: %+v", res)
	}
}

// TestMountInputsTimesEachInput mounts the suite twice through a cache
// directory, generating it the first time and mmap-loading it the second.
// MountInputs builds two inputs at a time, yet both times returns them in
// input order, each carrying its file and how long its own mount took. A
// -graphfile list with bad paths among good ones returns the first bad
// path's error, and no goroutine outlives a call.
func TestMountInputsTimesEachInput(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	dir := t.TempDir()
	specs := core.DefaultSuite(4)
	var files []string
	for _, pass := range []string{"generate", "mmap"} {
		inputs, err := core.MountInputs("", specs, dir)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if len(inputs) != len(specs) {
			t.Fatalf("%s: %d inputs for %d specs", pass, len(inputs), len(specs))
		}
		files = files[:0]
		for i, in := range inputs {
			want := filepath.Join(dir, core.GraphFileName(specs[i], "sg"))
			if in.Spec != specs[i] || in.File != want || in.Mount <= 0 {
				t.Errorf("%s: input %d is %s from %q mounted in %v, want %s from %q in a positive time",
					pass, i, in.Spec.Name, in.File, in.Mount, specs[i].Name, want)
			}
			files = append(files, in.File)
			if err := in.Close(); err != nil {
				t.Errorf("%s: close: %v", pass, err)
			}
		}
	}
	bad1, bad2 := filepath.Join(dir, "missing1.sg"), filepath.Join(dir, "missing2.sg")
	list := strings.Join([]string{files[0], files[1], bad1, files[2], bad2, files[3]}, ",")
	inputs, err := core.MountInputs(list, nil, "")
	if inputs != nil || err == nil || !strings.Contains(err.Error(), bad1) {
		t.Fatalf("MountInputs with %s and %s missing = %v, %v; want the error of %s", bad1, bad2, inputs, err, bad1)
	}
}
