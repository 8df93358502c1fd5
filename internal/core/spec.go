// Package core implements the paper's primary contribution: the evaluation
// methodology. It defines the benchmark specification (which kernels, which
// graphs, how trials are run, what Baseline and Optimized allow), the
// framework registry, the suite runner with cross-validation against the
// oracles, and the result records the report tables are built from.
package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/verify"
)

// Kernel names the six GAP benchmark kernels.
type Kernel string

// The six kernels, in the paper's table order.
const (
	BFS  Kernel = "BFS"
	SSSP Kernel = "SSSP"
	CC   Kernel = "CC"
	PR   Kernel = "PR"
	BC   Kernel = "BC"
	TC   Kernel = "TC"
)

// Kernels lists all kernels in Table IV/V order.
var Kernels = []Kernel{BFS, SSSP, CC, PR, BC, TC}

// GraphSpec describes one benchmark input graph.
type GraphSpec struct {
	// Name is the Table I graph name.
	Name string
	// Scale is log2 of the approximate vertex count handed to the generator.
	Scale int
	// Seed drives the generator deterministically.
	Seed uint64
	// Delta is the per-graph SSSP bucket width — the one per-graph knob the
	// GAP rules allow even in Baseline mode.
	Delta kernel.Dist
	// SourceSeed drives trial source selection.
	SourceSeed uint64
}

// DefaultSuite returns the five benchmark graphs at the given base scale.
// Relative sizes follow Table I: Road is the small, huge-diameter outlier;
// the other four carry an order of magnitude more edges. The paper's inputs
// are ~2000x larger; topology, not scale, is what separates the frameworks
// (see DESIGN.md).
func DefaultSuite(baseScale int) []GraphSpec {
	return []GraphSpec{
		{Name: generate.NameRoad, Scale: baseScale + 2, Seed: 42, Delta: 64, SourceSeed: 271828},
		{Name: generate.NameTwitter, Scale: baseScale, Seed: 42, Delta: 16, SourceSeed: 271829},
		{Name: generate.NameWeb, Scale: baseScale, Seed: 42, Delta: 16, SourceSeed: 271830},
		{Name: generate.NameKron, Scale: baseScale + 1, Seed: 42, Delta: 16, SourceSeed: 271831},
		{Name: generate.NameUrand, Scale: baseScale + 1, Seed: 42, Delta: 16, SourceSeed: 271832},
	}
}

// Input is one fully prepared benchmark input: the graph, the untimed views
// the GAP rules permit storing at load time, and the pre-drawn trial
// sources.
type Input struct {
	Spec       GraphSpec
	Graph      *graph.Graph
	Undirected *graph.Graph
	Relabeled  *graph.Graph // degree-sorted undirected view (Optimized TC); nil until RelabeledView
	Sources    []graph.NodeID
	BCRoots    [][]graph.NodeID
	// File is the serialized graph file this input was loaded from, empty
	// for generated inputs. Journals record it (with the graph's epoch) so
	// resumed runs can refuse a mismatched input.
	File string
	// Mount is how long MountInputs took to generate or load this input,
	// its views and sources included; zero for an input made another way.
	// Inputs mount two at a time, so their Mount times overlap: their sum
	// can exceed the wall time of the whole mount.
	Mount time.Duration

	relabelOnce sync.Once
	// mu guards prepared, which holds each Preparer's state per view, and
	// references, which holds each oracle answer trials are compared with,
	// until Close drops both. Prepare and the oracles run under it, so a
	// Close waits for one in flight; neither calls back into its input.
	mu         sync.Mutex
	prepared   map[preparedKey]any
	references map[referenceKey]any
}

// preparedKey names one framework's prepared state for one view of an input.
type preparedKey struct {
	framework string
	relabeled bool
}

// referenceKey names one oracle answer: the kernel and the trial slot it
// answers (see trialSlot).
type referenceKey struct {
	kernel Kernel
	slot   int
}

// RelabeledView returns the degree-sorted undirected view, building and
// sealing it on the first call. Only Optimized TC cells read it, so a load
// leaves it unbuilt and the runner builds it, untimed, before the first
// Optimized TC cell on the input.
func (in *Input) RelabeledView() *graph.Graph {
	in.relabelOnce.Do(func() {
		in.Relabeled, _ = graph.DegreeRelabel(par.Default(), in.Undirected)
		in.Relabeled.Seal()
	})
	return in.Relabeled
}

// Prepared returns f's prepared state for the input graph, or for the
// degree-relabeled view when relabeled is set (what an Optimized TC cell
// reads; the view is built here, for every framework, on first use). The
// first caller for a (framework, view) pair runs f's Prepare on that view,
// untimed; later callers, concurrent ones included, get what it returned.
// The input owns the state and drops it in Close. Nil when f is no
// kernel.Preparer or the input is closed. A panicking Prepare stores nothing
// and panics through to the caller.
func (in *Input) Prepared(f kernel.Framework, relabeled bool) any {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.Graph == nil {
		return nil
	}
	g, u := in.Graph, in.Undirected
	if relabeled {
		g, u = nil, in.RelabeledView()
	}
	key := preparedKey{f.Name(), relabeled}
	state, done := in.prepared[key]
	if p, ok := f.(kernel.Preparer); ok && !done {
		state = p.Prepare(g, u)
		if in.prepared == nil {
			in.prepared = make(map[preparedKey]any)
		}
		in.prepared[key] = state
	}
	return state
}

// trialSlot returns the index, in Sources for BFS and SSSP or in BCRoots for
// BC, of what trial reads; trials rotate through them. Zero for the other
// kernels, whose every trial reads the whole graph.
func (in *Input) trialSlot(k Kernel, trial int) int {
	switch k {
	case BFS, SSSP:
		return trial % len(in.Sources)
	case BC:
		return trial % len(in.BCRoots)
	}
	return 0
}

// reference returns the oracle answer a k trial is compared with: BFSDepths
// or Dijkstra from the trial's source, Betweenness over its root set,
// Components, or Triangles on the undirected view. The first caller for a
// (kernel, source or root set) builds it, untimed; later callers, concurrent
// ones included, share it until Close drops it. Nil for PR, which CheckPR
// checks from the answer alone, and on a closed input. A panicking oracle
// stores nothing and panics through to the caller.
func (in *Input) reference(k Kernel, trial int) any {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.Graph == nil || k == PR {
		return nil
	}
	key := referenceKey{k, in.trialSlot(k, trial)}
	if ref, done := in.references[key]; done {
		return ref
	}
	var ref any
	switch k {
	case BFS:
		ref = verify.BFSDepths(in.Graph, in.Sources[key.slot])
	case SSSP:
		ref = verify.Dijkstra(in.Graph, in.Sources[key.slot])
	case CC:
		ref = verify.Components(in.Graph)
	case BC:
		ref = verify.Betweenness(in.Graph, in.BCRoots[key.slot])
	case TC:
		ref = verify.Triangles(in.Undirected)
	}
	if in.references == nil {
		in.references = make(map[referenceKey]any)
	}
	in.references[key] = ref
	return ref
}

// Close drops every framework's prepared state and every oracle answer, and
// releases the storage of every distinct graph view this input holds (the
// primary graph, the undirected view, and the relabeled view if it was built
// may alias one another). After Close, mmap-backed inputs are unmapped and
// any retained kernel view panics on use instead of faulting.
func (in *Input) Close() error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.prepared, in.references = nil, nil
	var first error
	closed := make(map[*graph.Graph]bool, 3)
	for _, g := range []*graph.Graph{in.Relabeled, in.Undirected, in.Graph} {
		if g == nil || closed[g] {
			continue
		}
		closed[g] = true
		if err := g.Close(); err != nil && first == nil {
			first = err
		}
	}
	in.Graph, in.Undirected, in.Relabeled = nil, nil, nil
	return first
}

// GraphFileName is the canonical serialized-graph file name for a suite
// spec: lowercase graph name, scale, and generator seed, with the given
// extension ("sg", the serialized-graph format). graphgen writes these names
// and the -graphdir cache looks them up, so the two sides agree by
// construction.
func GraphFileName(spec GraphSpec, ext string) string {
	return fmt.Sprintf("%s-s%d-seed%d.%s", strings.ToLower(spec.Name), spec.Scale, spec.Seed, ext)
}

// maxTrialSources is how many BFS/SSSP sources (and BC root sets) are
// pre-drawn per graph. The GAP spec draws 64; scaled-down runs use fewer,
// configurable per Runner.
const maxTrialSources = 16

// LoadInput generates the graph and builds every untimed view and source
// list the suite needs.
func LoadInput(spec GraphSpec) (*Input, error) {
	g, err := generateGraph(spec)
	if err != nil {
		return nil, err
	}
	return PrepareInput(spec, g), nil
}

// generateGraph draws spec's graph from its generator.
func generateGraph(spec GraphSpec) (*graph.Graph, error) {
	g, err := generate.ByName(spec.Name, spec.Scale, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: generating %s: %w", spec.Name, err)
	}
	return g, nil
}

// PrepareInput builds the Input around an existing graph (used by tests and
// by the CLI when loading a serialized graph).
func PrepareInput(spec GraphSpec, g *graph.Graph) *Input {
	in := buildViews(spec, g)
	in.seal()
	return in
}

// buildViews builds the Input's views and trial sources; it writes nothing
// into g.
func buildViews(spec GraphSpec, g *graph.Graph) *Input {
	in := &Input{Spec: spec, Graph: g}
	in.Undirected = g.Undirected()
	in.Sources = PickSources(g, maxTrialSources, spec.SourceSeed)
	for i := 0; i+kernel.BCSources <= len(in.Sources); i += kernel.BCSources {
		in.BCRoots = append(in.BCRoots, in.Sources[i:i+kernel.BCSources])
	}
	if len(in.BCRoots) == 0 && len(in.Sources) > 0 {
		in.BCRoots = [][]graph.NodeID{in.Sources}
	}
	return in
}

// seal checksums, in armed builds only (a no-op otherwise), the CSR arrays
// of the views a load builds, so the runner can prove them untouched after
// each trial (RelabeledView seals the view it builds).
func (in *Input) seal() {
	in.Graph.Seal()
	in.Undirected.Seal()
}

// PickSources draws count distinct-ish sources with non-zero out-degree,
// mirroring the GAP SourcePicker (uniform over vertices, rejecting isolated
// ones, deterministic for a given seed).
func PickSources(g *graph.Graph, count int, seed uint64) []graph.NodeID {
	n := uint64(g.NumNodes())
	if n == 0 {
		return nil
	}
	out := make([]graph.NodeID, 0, count)
	x := seed*6364136223846793005 + 1442695040888963407
	for attempts := 0; len(out) < count && attempts < count*1000; attempts++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := graph.NodeID((x >> 17) % n)
		if g.OutDegree(v) > 0 {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}
