// Package kernel defines the contracts shared by every framework
// reproduction: the six GAP kernel signatures, their result conventions, and
// the run options that encode the paper's Baseline/Optimized rule sets.
//
// Result conventions (fixed so results can be cross-validated between
// frameworks, the way the paper's teams cross-validated each other):
//
//   - BFS returns a parent array: parent[src] = src, parent[v] = the BFS-tree
//     parent for reached v, -1 for unreachable v.
//   - SSSP returns distances with Inf for unreachable vertices.
//   - PR returns per-vertex scores that sum to ~1, damping 0.85, run until
//     the per-iteration L1 delta falls below Tolerance (or MaxIters).
//   - CC returns component labels; two vertices get equal labels iff they are
//     in the same weakly connected component. Label values are arbitrary.
//   - BC returns scores normalized by the maximum score, computed from the
//     given root vertices only (the benchmark uses 4 roots per trial).
//   - TC returns the global triangle count, each triangle counted once.
package kernel

import (
	"fmt"
	"math"

	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// Dist is an SSSP path distance (sum of up-to-255 weights).
type Dist = int32

// Inf is the SSSP distance of an unreachable vertex.
const Inf Dist = math.MaxInt32

// PageRank parameters from the GAP benchmark specification.
const (
	PRDamping   = 0.85
	PRTolerance = 1e-4
	PRMaxIters  = 100
)

// BCSources is the number of root vertices per BC trial (the paper
// approximates BC "by considering only four root vertices per trial").
const BCSources = 4

// Mode selects the paper's rule set.
type Mode int

// The two evaluation rule sets from §IV.
const (
	// Baseline forbids per-graph hand tuning: fixed worker count, run-time
	// heuristics only. (The SSSP delta parameter is the sanctioned
	// exception.)
	Baseline Mode = iota
	// Optimized allows everything the paper's Optimized data set allowed:
	// per-graph algorithm choice, extra workers (hyperthreading), untimed
	// relabeling, schedule specialization.
	Optimized
)

func (m Mode) String() string {
	if m == Optimized {
		return "Optimized"
	}
	return "Baseline"
}

// MarshalText renders the mode by name so journal lines stay human-readable.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a mode name (the journal resume path).
func (m *Mode) UnmarshalText(b []byte) error {
	switch string(b) {
	case "Baseline":
		*m = Baseline
	case "Optimized":
		*m = Optimized
	default:
		return fmt.Errorf("kernel: unknown mode %q", b)
	}
	return nil
}

// Options carries per-run knobs to a kernel.
type Options struct {
	// Workers is ignored: a kernel runs at the width of Machine (Exec's
	// Size), the one source of parallel width.
	//
	// Deprecated: nothing in this module reads or writes it; the next change
	// to the benchmark module deletes it together with its last writer there.
	Workers int
	// Mode selects the Baseline or Optimized rule set.
	Mode Mode
	// GraphName identifies the input for Optimized-mode per-graph dispatch
	// ("Road", "Twitter", ...). Baseline runs leave it empty — frameworks
	// must then rely on run-time heuristics, exactly as §IV-A requires.
	GraphName string
	// Delta is the SSSP bucket width. Zero means DefaultDelta. GAP allows
	// tuning this per graph even in Baseline mode. Kernels read it through
	// SSSPDelta.
	Delta Dist

	// Machine is the persistent worker pool the kernel's parallel regions
	// run on, and its Size is the kernel's parallel width. The harness
	// constructs one machine per mode so each cell's synchronization
	// structure (regions, barriers, dynamic chunks) is observable via
	// par.Machine.Stats. Nil means the process-default machine — kernels
	// must reach it through Exec(), never directly.
	Machine *par.Machine

	// Cancel is the trial's cooperative cancellation token (nil when the
	// harness set no deadline). The machine already polls it at slot and
	// chunk boundaries, so parallel regions drain on their own; kernels must
	// additionally poll it in their own round/iteration loops (PR
	// convergence sweeps, SSSP bucket rounds, BFS frontier steps) via
	// Cancelled() and return early — the returned result is garbage, which
	// is fine: the harness discards every cancelled trial. A kernel that
	// ignores the token past the runner's grace period gets its machine
	// abandoned (DESIGN.md §9), so polling is also self-interest.
	Cancel *par.CancelToken

	// UndirectedView is the symmetrized form of the input, prebuilt by the
	// harness. The GAP rules let implementations store multiple forms of the
	// graph at load time, so consulting this is legal in both modes. Nil
	// means the kernel must derive it itself.
	UndirectedView *graph.Graph
	// RelabeledView is the degree-sorted undirected form, prebuilt untimed.
	// The paper's Optimized rule set is the only one that lets frameworks
	// exclude relabeling time, so kernels reach it only through TCView,
	// which ignores it unless Mode == Optimized.
	RelabeledView *graph.Graph

	// Prepared is what the framework's Prepare returned for the view this
	// cell reads — the relabeled view for an Optimized TC cell, the input
	// graph otherwise. The harness sets it from the input that owns it. Nil
	// means nothing was prepared, and the kernel converts inside the timed
	// region.
	Prepared any
}

// Undirected returns the prebuilt undirected view when available, falling
// back to deriving one (whose cost then lands inside the timed region, which
// is exactly what the GAP rules prescribe for format conversion).
func (o Options) Undirected(g *graph.Graph) *graph.Graph {
	if o.UndirectedView != nil {
		return o.UndirectedView
	}
	return g.Undirected()
}

// TCView returns the graph a triangle count walks: the harness's untimed
// degree-relabeled view in Optimized mode when one is set (§V-F: "For the
// Optimized case, we excluded the time to preprocess and relabel the
// graph"); otherwise the undirected view, relabeled by degree inside the
// timed trial on Exec() when the GAP reference's WorthRelabelling sample says
// the degrees are skewed enough to pay for it.
func (o Options) TCView(g *graph.Graph) *graph.Graph {
	if o.Mode == Optimized && o.RelabeledView != nil {
		return o.RelabeledView
	}
	u := o.Undirected(g)
	if !graph.SkewedDegrees(u) {
		return u
	}
	ru, _ := graph.DegreeRelabel(o.Exec(), u)
	return ru
}

// DefaultDelta is the GAP reference's SSSP bucket width, used when the
// harness gives none.
const DefaultDelta Dist = 16

// SSSPDelta resolves the SSSP bucket width: the per-graph Delta (the one
// knob GAP allows even in Baseline mode) when positive, else DefaultDelta.
func (o Options) SSSPDelta() Dist {
	if o.Delta > 0 {
		return o.Delta
	}
	return DefaultDelta
}

// Exec returns the machine the kernel's parallel regions must run on,
// defaulting to the process-wide machine when the harness did not attach one.
// Framework code runs every region on the returned machine (opt.Exec().For,
// …), so per-cell launch and barrier counts reflect the framework's real
// structure instead of vanishing into the shared default pool.
func (o Options) Exec() *par.Machine {
	if o.Machine != nil {
		return o.Machine
	}
	return par.Default()
}

// Cancelled reports whether the harness has cancelled this trial (deadline
// passed or caller-driven). Nil-safe; kernels poll it at round boundaries
// and bail out with whatever partial result they have.
func (o Options) Cancelled() bool {
	return o.Cancel.Cancelled()
}

// Framework is the interface every framework reproduction implements. One
// value of this interface corresponds to one column of the paper's Table II.
type Framework interface {
	// Name returns the framework's display name as used in the paper.
	Name() string
	// BFS computes a breadth-first-search parent tree from src.
	BFS(g *graph.Graph, src graph.NodeID, opt Options) []graph.NodeID
	// SSSP computes shortest-path distances from src over positive weights.
	SSSP(g *graph.Graph, src graph.NodeID, opt Options) []Dist
	// PR computes PageRank scores to the GAP tolerance.
	PR(g *graph.Graph, opt Options) []float64
	// CC labels weakly connected components.
	CC(g *graph.Graph, opt Options) []graph.NodeID
	// BC computes approximate betweenness centrality from the given roots.
	BC(g *graph.Graph, sources []graph.NodeID, opt Options) []float64
	// TC counts triangles in the undirected view of g.
	TC(g *graph.Graph, opt Options) int64
}

// Algorithms describes which algorithm a framework uses per kernel (the
// paper's Table III row for that framework).
type Algorithms struct {
	BFS, SSSP, CC, PR, BC, TC string
}

// Preparer is implemented by frameworks that build internal representations
// of the input graph at load time — the analogue of each paper framework
// loading the benchmark graph into its own native structures before trials
// begin. The harness calls Prepare untimed, once per input and view, keeps
// what it returns with the input until the input closes, and hands it to
// kernels as Options.Prepared. g is nil for a view only TC reads (the
// degree-relabeled view): then only undirected needs converting. Per-kernel
// format conversion beyond this remains timed, per the GAP rules.
type Preparer interface {
	Prepare(g, undirected *graph.Graph) any
}

// Describer is implemented by frameworks that report their Table II/III
// metadata.
type Describer interface {
	// Attributes returns Table II-style attribute key/values.
	Attributes() map[string]string
	// Algorithms returns the Table III row.
	Algorithms() Algorithms
}
