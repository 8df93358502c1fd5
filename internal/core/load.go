package core

// load.go holds the selection and input-acquisition paths shared by every
// binary that mounts suite graphs — the batch CLI (cmd/gapbench), the serving
// daemon (cmd/gapd), and the benchmark: frameworks and suite specs from
// comma-separated flags, generate-or-reload through a cache directory, and
// mmap-loading a serialized graph with its suite spec rebuilt from file
// provenance.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// SplitCSV splits a comma-separated flag value, trimming blanks and dropping
// empty items.
func SplitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// FrameworksFromCSV returns fresh instances of the frameworks a -frameworks
// flag names, in the order named (none for a list that names none).
func FrameworksFromCSV(csv string) ([]kernel.Framework, error) {
	var out []kernel.Framework
	for _, name := range SplitCSV(csv) {
		f := FrameworkByName(name)
		if f == nil {
			return nil, fmt.Errorf("unknown framework %q (have %v)", name, FrameworkNames())
		}
		out = append(out, f)
	}
	return out, nil
}

// SuiteSpecs returns the suite at the given base scale, narrowed to the
// graphs a -graphs flag names (in the order named); an empty list keeps all
// five. A graph named twice is an error: it would be run twice, and two
// concurrent mounts would write one cache file.
func SuiteSpecs(scale int, graphsCSV string) ([]GraphSpec, error) {
	specs := DefaultSuite(scale)
	if graphsCSV == "" {
		return specs, nil
	}
	var subset []GraphSpec
	for _, name := range SplitCSV(graphsCSV) {
		i := slices.IndexFunc(specs, func(s GraphSpec) bool { return strings.EqualFold(s.Name, name) })
		if i < 0 {
			return nil, fmt.Errorf("unknown graph %q (have %v)", name, generate.Names)
		}
		if slices.ContainsFunc(subset, func(s GraphSpec) bool { return s.Name == specs[i].Name }) {
			return nil, fmt.Errorf("graph %q named twice", specs[i].Name)
		}
		subset = append(subset, specs[i])
	}
	return subset, nil
}

// mountWidth is how many inputs MountInputs builds at once. Two hide one
// input's serial phases (the generator's draw loop, the cache write, the
// relabel's permute) behind the other's parallel build, and hold peak build
// scratch to that of the two largest inputs.
const mountWidth = 2

// MountInputs prepares the inputs a binary runs on: the serialized graphs a
// -graphfile list names when there is one, otherwise specs generated or
// reloaded through the dir cache. Up to two inputs mount at once; the result
// keeps input order and each input carries its own mount time. On error the
// inputs already mounted are closed and the first error in input order is
// returned.
func MountInputs(graphFiles string, specs []GraphSpec, dir string) ([]*Input, error) {
	return mount(loader(graphFiles, specs, dir))
}

// EachInput mounts the inputs MountInputs would, one at a time: it hands each
// to fn and closes it, with every framework's state prepared on it, before
// mounting the next, so one input's graphs are live at a time. It stops at
// the first input whose mount, fn or Close fails.
func EachInput(graphFiles string, specs []GraphSpec, dir string, fn func(*Input) error) error {
	n, load := loader(graphFiles, specs, dir)
	for i := range n {
		in, err := load(i)
		if err != nil {
			return err
		}
		if err := errors.Join(fn(in), in.Close()); err != nil {
			return err
		}
		// Collect the closed input now: the heap goal the collector set
		// while it was live would otherwise let the next input grow into
		// its garbage before the next cycle.
		runtime.GC()
	}
	return nil
}

// loader returns how many inputs a binary runs on and how to load the i-th:
// the serialized graphs a -graphfile list names when there is one, otherwise
// specs generated or reloaded through the dir cache.
func loader(graphFiles string, specs []GraphSpec, dir string) (int, func(i int) (*Input, error)) {
	if graphFiles != "" {
		paths := SplitCSV(graphFiles)
		return len(paths), func(i int) (*Input, error) { return LoadInputFile(paths[i]) }
	}
	return len(specs), func(i int) (*Input, error) { return LoadCachedInput(specs[i], dir) }
}

// mount runs load for inputs 0..n-1 on mountWidth goroutines and returns
// once every one of them has ended. The goroutines take inputs in order and
// take no more after a failure, so every input before a failed one has been
// tried: the first error in input order is the first error there is.
func mount(n int, load func(i int) (*Input, error)) ([]*Input, error) {
	inputs := make([]*Input, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(mountWidth, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				start := time.Now()
				in, err := load(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				in.Mount = time.Since(start)
				inputs[i] = in
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, in := range inputs {
				_ = in.Close() // the mount error is the one worth reporting
			}
			return nil, err
		}
	}
	return inputs, nil
}

// LoadCachedInput loads a serialized graph for spec from dir when present,
// generating and caching it otherwise; with no dir it always generates.
// Cache files are format-v2 .sg images, mmap-loaded zero-copy. A generated
// graph is written to the cache while its views are built: the write only
// reads the CSR arrays the views are built from, and the seal, which reads
// the checksums the write records, waits for it.
func LoadCachedInput(spec GraphSpec, dir string) (*Input, error) {
	if dir == "" {
		return LoadInput(spec)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, GraphFileName(spec, "sg"))
	if g, err := graph.Load(path); err == nil {
		in := PrepareInput(spec, g)
		in.File = path
		return in, nil
	}
	g, err := generateGraph(spec)
	if err != nil {
		return nil, err
	}
	g.SetProvenance(spec.Name, uint32(spec.Scale), spec.Seed)
	saved := make(chan error, 1)
	go func() { saved <- g.SaveSG(path) }()
	in := buildViews(spec, g)
	if err := <-saved; err != nil {
		_ = in.Close() // the cache error is the one worth reporting
		return nil, fmt.Errorf("caching %s: %w", path, err)
	}
	in.seal()
	in.File = path
	return in, nil
}

// LoadInputFile mmap-loads one serialized graph and rebuilds its suite spec
// from the provenance stamped in the file header (the graph name selects the
// suite's per-graph Delta and SourceSeed; scale and seed come from the file).
func LoadInputFile(path string) (*Input, error) {
	g, err := graph.Load(path)
	if err != nil {
		return nil, err
	}
	name, provScale, provSeed := g.Provenance()
	spec, err := SpecForName(name)
	if err != nil {
		_ = g.Close() // the spec error is the one worth reporting
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	spec.Scale = int(provScale)
	spec.Seed = provSeed
	in := PrepareInput(spec, g)
	in.File = path
	return in, nil
}

// SpecForName finds the suite template (per-graph Delta, SourceSeed) for a
// provenance graph name.
func SpecForName(name string) (GraphSpec, error) {
	if name == "" {
		return GraphSpec{}, fmt.Errorf("file carries no provenance (regenerate it with graphgen)")
	}
	for _, s := range DefaultSuite(0) {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return GraphSpec{}, fmt.Errorf("provenance graph %q is not a suite graph (have %v)", name, generate.Names)
}
