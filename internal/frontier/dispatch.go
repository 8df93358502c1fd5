package frontier

// Beamer's direction-optimizing BFS thresholds (Beamer, Asanović, Patterson,
// SC'12), the values the GAP reference implementation ships with.
const (
	DefaultAlpha = 15
	DefaultBeta  = 18
)

// Dispatcher is the Beamer-style alpha/beta direction switch, driven by
// running out-degree sums rather than vertex counts: the push cost of a round
// is the number of edges leaving the frontier (the "scout" sum), not how many
// vertices are on it — one hub vertex on a scale-free graph can carry more
// work than thousands of road-network vertices. The pull side is bounded by
// the edges still entering unvisited vertices, tracked as a running remainder
// (edgesToCheck). Pull when
//
//	scout > edgesToCheck / Alpha
//
// and, once pulling, keep pulling while the awake count grows or stays above
// n/Beta — switching back too eagerly re-pays the pull's full-vertex scan on
// the very next round.
type Dispatcher struct {
	// Alpha and Beta are the switch thresholds; zero Alpha disables the pull
	// side entirely (push-only accounting).
	Alpha, Beta int64

	n            int64
	edges        int64
	edgesToCheck int64
	scout        int64
}

// NewDispatcher returns a dispatcher for a graph with n vertices and `edges`
// directed edges, starting from a frontier whose out-degree sum is scout.
func NewDispatcher(n, edges, scout int64) *Dispatcher {
	return &Dispatcher{
		Alpha: DefaultAlpha, Beta: DefaultBeta,
		n: n, edges: edges, edgesToCheck: edges, scout: scout,
	}
}

// UsePull reports whether the next round should run in the pull direction.
func (d *Dispatcher) UsePull() bool {
	return d.Alpha > 0 && d.scout > d.edgesToCheck/d.Alpha
}

// BeginPush charges the frontier's outgoing edges against the remaining
// unexplored edge budget; call it before a push round.
func (d *Dispatcher) BeginPush() { d.edgesToCheck -= d.scout }

// EndPush records the next frontier's out-degree sum after a push round.
func (d *Dispatcher) EndPush(scout int64) { d.scout = scout }

// KeepPulling reports whether a pull phase should run another round: the
// frontier is still growing (awake >= prev) or still covers more than n/Beta
// vertices. A zero awake count always stops.
func (d *Dispatcher) KeepPulling(awake, prev int64) bool {
	return awake != 0 && (awake >= prev || awake > d.n/d.Beta)
}

// EndPull resets the scout sum after a pull phase ends: the frontier shrank
// below the pull threshold, so the next push round's charge is nominal (the
// reference implementation's scout_count = 1).
func (d *Dispatcher) EndPull() { d.scout = 1 }

// DisableAccounting zeroes the running sums, for push-only schedules that
// skip the active-vertex counting overhead entirely (§V-A's Optimized Road
// BFS). UsePull never fires afterward until EndPush records a new scout.
func (d *Dispatcher) DisableAccounting() {
	d.scout = 0
	d.edgesToCheck = d.edges
}
