// Package chaos is the fault-injection layer of the harness's fault model
// (DESIGN.md §9): a deterministic wrapper around any kernel.Framework that
// makes chosen benchmark cells panic, stall, hang, or return corrupted
// output. The suite runner is supposed to survive all four and classify each
// one correctly (Panicked / TimedOut / TimedOut-with-abandonment /
// VerifyFailed) — the chaos e2e tests in internal/core assert exactly that.
//
// Only tests import the package: no binary links an Injector, so injection
// needs no build tag to keep it out of production paths. A wrapped framework
// fires its faults in every build.
package chaos

import (
	"fmt"
	"sync/atomic"
	"time"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// Mode selects what a fault does to its cell.
type Mode int

const (
	// Panic makes the kernel panic with a recognizable "chaos:" value.
	Panic Mode = iota
	// Stall makes the kernel block cooperatively: it waits for the trial's
	// cancellation token, then returns its partial (untouched) output — the
	// well-behaved slow kernel. Classified TimedOut, machine kept.
	Stall
	// Hang makes the kernel ignore the cancellation token: it keeps sleeping
	// for HangExtra past the cancel before returning — the misbehaving
	// kernel. The runner abandons its machine; classified TimedOut.
	Hang
	// Corrupt runs the real kernel and then deterministically flips its
	// output, so the oracle rejects it. Classified VerifyFailed.
	Corrupt
	// CorruptGraph mutates one CSR adjacency entry in place before running
	// the real kernel — the fault the graphguard sanitizer exists for. The
	// oracle cannot catch it (it verifies against the same corrupted graph),
	// so without -tags=check the trial silently passes with a wrong
	// answer; with it, the runner's seal check panics naming the array.
	// Classified Panicked in an armed build.
	CorruptGraph
)

func (m Mode) String() string {
	switch m {
	case Panic:
		return "Panic"
	case Stall:
		return "Stall"
	case Hang:
		return "Hang"
	case Corrupt:
		return "Corrupt"
	case CorruptGraph:
		return "CorruptGraph"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Fault selects one or more cells and the failure to inject there.
type Fault struct {
	// Kernel names the targeted kernel ("BFS", "SSSP", "PR", "CC", "BC",
	// "TC"); Graph the targeted graph, with "" matching every graph.
	Kernel string
	Graph  string
	Mode   Mode
	// Once arms the fault for a single firing: the first matching trial
	// attempt fails, the retry succeeds — the transient-failure path of the
	// runner's retry policy. Concurrent matches (a gapd burst, an abandoned
	// attempt still running) elect exactly one firing. Zero-valued faults
	// fire on every attempt (deterministic failures).
	Once bool
	// HangExtra bounds how long a Hang keeps ignoring the cancellation
	// token (so tests can reap the abandoned machine instead of leaking its
	// workers forever). Zero means 30s.
	HangExtra time.Duration
}

// Injector wraps a framework, firing configured faults on matching cells;
// every other call passes straight through. The Injector is handed to the
// runner like any other framework; its Name is the inner framework's, so
// results and journals stay keyed to the real framework.
type Injector struct {
	inner  kernel.Framework
	faults []*Fault
	// spent[i] is set by the one match that claims Once-fault faults[i].
	spent []atomic.Bool
	// Seed drives output corruption deterministically.
	seed uint64
}

// Wrap builds an Injector around f with the given faults and corruption
// seed. The faults are read, never written: a Once-fault's firing is
// recorded on the Injector.
func Wrap(f kernel.Framework, seed uint64, faults ...*Fault) *Injector {
	return &Injector{inner: f, faults: faults, spent: make([]atomic.Bool, len(faults)), seed: seed}
}

// Name returns the wrapped framework's name.
func (i *Injector) Name() string { return i.inner.Name() }

// Prepare forwards the load-time conversion when the inner framework has one
// and returns its state, which the kernels forward with their options.
func (i *Injector) Prepare(g, undirected *graph.Graph) any {
	if p, ok := i.inner.(kernel.Preparer); ok {
		return p.Prepare(g, undirected)
	}
	return nil
}

// Attributes forwards Table II metadata when available.
func (i *Injector) Attributes() map[string]string {
	if d, ok := i.inner.(kernel.Describer); ok {
		return d.Attributes()
	}
	return nil
}

// Algorithms forwards Table III metadata when available.
func (i *Injector) Algorithms() kernel.Algorithms {
	if d, ok := i.inner.(kernel.Describer); ok {
		return d.Algorithms()
	}
	return kernel.Algorithms{}
}

// match returns the armed fault for (kernelName, opt), consuming Once-faults
// with one compare-and-swap so concurrent matches fire each at most once.
func (i *Injector) match(kernelName string, opt kernel.Options) *Fault {
	for k, f := range i.faults {
		if f == nil || f.Kernel != kernelName {
			continue
		}
		if f.Graph != "" && f.Graph != opt.GraphName && f.Graph != "*" {
			// Baseline cells carry no GraphName; a graph-scoped fault only
			// fires when the runner identifies the graph (Optimized mode).
			continue
		}
		if f.Once && !i.spent[k].CompareAndSwap(false, true) {
			continue // already fired
		}
		return f
	}
	return nil
}

// fire runs f's pre-kernel effect. It returns true when the real kernel must
// be skipped and a placeholder output returned (Stall/Hang — the harness
// discards it as TimedOut anyway); Panic never returns; CorruptGraph mutates
// g's CSR in place and lets the real kernel run; Corrupt and nil do nothing
// here (output corruption happens after the real kernel runs).
func (i *Injector) fire(f *Fault, kernelName string, g *graph.Graph, opt kernel.Options) bool {
	if f == nil {
		return false
	}
	switch f.Mode {
	case Panic:
		panic(fmt.Sprintf("chaos: injected panic in %s %s", i.inner.Name(), kernelName))
	case Stall:
		// Cooperative: poll the token like a well-behaved kernel, then bail.
		for !opt.Exec().Interrupted() {
			time.Sleep(time.Millisecond)
		}
		return true
	case Hang:
		// Misbehaving: keep ignoring the token past the runner's grace, but
		// bounded so the abandoned machine can be reaped by tests.
		extra := f.HangExtra
		if extra <= 0 {
			extra = 30 * time.Second
		}
		for !opt.Exec().Interrupted() {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(extra)
		return true
	case CorruptGraph:
		_, neigh := g.RawOut()
		if n := g.NumNodes(); n > 0 && len(neigh) > 0 {
			v := i.corruptIndex(kernelName, len(neigh))
			// Increment (mod n, staying a valid vertex id) rather than XOR:
			// a second firing must not restore the checksum, so a retried
			// attempt still trips graphguard.
			//gapvet:ignore graph-mutation -- chaos deliberately corrupts shared CSR memory to exercise the graphguard sanitizer
			neigh[v] = (neigh[v] + 1) % n
		}
	}
	return false
}

// splitmix64 is the corruption PRNG: tiny, seedable, stateless per call
// chain — the same fault fires the same way on every run with the same seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// corruptIndex picks the deterministic victim index for an n-element output.
func (i *Injector) corruptIndex(kernelName string, n int) int {
	if n <= 0 {
		return 0
	}
	h := i.seed
	for _, c := range []byte(kernelName) {
		h = splitmix64(h ^ uint64(c))
	}
	return int(h % uint64(n))
}

// BFS forwards to the inner framework, firing any matching fault.
func (i *Injector) BFS(g *graph.Graph, src graph.NodeID, opt kernel.Options) []graph.NodeID {
	f := i.match("BFS", opt)
	if i.fire(f, "BFS", g, opt) {
		return make([]graph.NodeID, g.NumNodes())
	}
	parent := i.inner.BFS(g, src, opt)
	if f != nil && f.Mode == Corrupt && len(parent) > 0 {
		v := i.corruptIndex("BFS", len(parent))
		parent[v] = graph.NodeID(v) // self-parent off the tree root: invalid
		if graph.NodeID(v) == src {
			parent[v] = -1 // unreachable source: equally invalid
		}
	}
	return parent
}

// SSSP forwards to the inner framework, firing any matching fault.
func (i *Injector) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	f := i.match("SSSP", opt)
	if i.fire(f, "SSSP", g, opt) {
		return make([]kernel.Dist, g.NumNodes())
	}
	dist := i.inner.SSSP(g, src, opt)
	if f != nil && f.Mode == Corrupt && len(dist) > 0 {
		dist[i.corruptIndex("SSSP", len(dist))] = -7 // negative distance: invalid
	}
	return dist
}

// PR forwards to the inner framework, firing any matching fault.
func (i *Injector) PR(g *graph.Graph, opt kernel.Options) []float64 {
	f := i.match("PR", opt)
	if i.fire(f, "PR", g, opt) {
		return make([]float64, g.NumNodes())
	}
	ranks := i.inner.PR(g, opt)
	if f != nil && f.Mode == Corrupt && len(ranks) > 0 {
		ranks[i.corruptIndex("PR", len(ranks))] += 0.5 // breaks the fixed point
	}
	return ranks
}

// CC forwards to the inner framework, firing any matching fault.
func (i *Injector) CC(g *graph.Graph, opt kernel.Options) []graph.NodeID {
	f := i.match("CC", opt)
	if i.fire(f, "CC", g, opt) {
		return make([]graph.NodeID, g.NumNodes())
	}
	labels := i.inner.CC(g, opt)
	if f != nil && f.Mode == Corrupt && len(labels) > 1 {
		v := i.corruptIndex("CC", len(labels))
		labels[v] = labels[(v+1)%len(labels)] + 1 + graph.NodeID(len(labels)) // out-of-range label
	}
	return labels
}

// BC forwards to the inner framework, firing any matching fault.
func (i *Injector) BC(g *graph.Graph, sources []graph.NodeID, opt kernel.Options) []float64 {
	f := i.match("BC", opt)
	if i.fire(f, "BC", g, opt) {
		return make([]float64, g.NumNodes())
	}
	scores := i.inner.BC(g, sources, opt)
	if f != nil && f.Mode == Corrupt && len(scores) > 0 {
		scores[i.corruptIndex("BC", len(scores))] = -1 // negative centrality: invalid
	}
	return scores
}

// TC forwards to the inner framework, firing any matching fault.
func (i *Injector) TC(g *graph.Graph, opt kernel.Options) int64 {
	f := i.match("TC", opt)
	if i.fire(f, "TC", g, opt) {
		return 0
	}
	count := i.inner.TC(g, opt)
	if f != nil && f.Mode == Corrupt {
		count = -count - 1 // always wrong, even for 0
	}
	return count
}
