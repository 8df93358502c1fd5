package core

// load.go holds the selection and input-acquisition paths shared by every
// binary that mounts suite graphs — the batch CLI (cmd/gapbench), the serving
// daemon (cmd/gapd), and the benchmark: frameworks and suite specs from
// comma-separated flags, generate-or-reload through a cache directory, and
// mmap-loading a serialized graph with its suite spec rebuilt from file
// provenance.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
// five.
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
		subset = append(subset, specs[i])
	}
	return subset, nil
}

// MountInputs prepares the inputs a binary runs on: the serialized graphs a
// -graphfile list names when there is one, otherwise specs generated or
// reloaded through the dir cache. On error the inputs already mounted are
// closed.
func MountInputs(graphFiles string, specs []GraphSpec, dir string) ([]*Input, error) {
	n, load := len(specs), func(i int) (*Input, error) { return LoadCachedInput(specs[i], dir) }
	if graphFiles != "" {
		paths := SplitCSV(graphFiles)
		n, load = len(paths), func(i int) (*Input, error) { return LoadInputFile(paths[i]) }
	}
	inputs := make([]*Input, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		in, err := load(i)
		if err != nil {
			for _, prev := range inputs {
				_ = prev.Close() // the mount error is the one worth reporting
			}
			return nil, err
		}
		in.Mount = time.Since(start)
		inputs = append(inputs, in)
	}
	return inputs, nil
}

// LoadCachedInput loads a serialized graph for spec from dir when present,
// generating and caching it otherwise; with no dir it always generates.
// Cache files are format-v2 .sg images, mmap-loaded zero-copy.
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
	in, err := LoadInput(spec)
	if err != nil {
		return nil, err
	}
	in.Graph.SetProvenance(spec.Name, uint32(spec.Scale), spec.Seed)
	if err := in.Graph.SaveSG(path); err != nil {
		return nil, fmt.Errorf("caching %s: %w", path, err)
	}
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
