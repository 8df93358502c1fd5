package analysis

import (
	"strings"
	"testing"
)

// TestFieldSpawnPropagationRealMachine pins the field-based spawn fixpoint
// against the real internal/par: Machine.dispatch never writes a `go`
// statement and never reaches one through the call graph (only NewMachine
// does) — the body closure reaches pool goroutines purely through data. dispatch parks it in
// region.body, workers spawned once in NewMachine receive the region off the
// wake channel, and runSlot invokes the field. Without propagateFieldSpawns,
// SpawnsGo(dispatch) is false and every rule downstream of the concurrency
// facts is blind to machine regions.
func TestFieldSpawnPropagationRealMachine(t *testing.T) {
	prog := BuildProgram([]*Package{parPackage(t)})

	const dispatch = FuncID("(*gapbench/internal/par.Machine).dispatch")
	if _, ok := prog.Funcs[dispatch]; !ok {
		t.Fatalf("no summary for %s — did Machine.dispatch get renamed?", dispatch)
	}
	if !prog.SpawnsGo(dispatch) {
		t.Errorf("SpawnsGo(%s) = false; field-based propagation must recognize the region.body store", dispatch)
	}

	// The worker-side chain: go m.worker(w) -> participate -> runSlot must be
	// classified as concurrent, which is what makes the body field hot.
	for _, id := range []FuncID{
		"(*gapbench/internal/par.Machine).worker",
		"(*gapbench/internal/par.region).participate",
		"(*gapbench/internal/par.region).runSlot",
	} {
		if !prog.ConcurrentFunc(id) {
			t.Errorf("ConcurrentFunc(%s) = false; the pool worker chain must be concurrent", id)
		}
	}

	// Sanity: promotion is targeted, not a package-wide blanket. Size reads a
	// struct field and calls nothing.
	if prog.SpawnsGo("(*gapbench/internal/par.Machine).Size") {
		t.Error("SpawnsGo(Machine.Size) = true; field propagation over-promoted")
	}
}

// miniPoolFixture is a self-contained worker pool in fixture code with the
// same shape as par.Machine but no syntactic `go` anywhere near the submit
// path: loop() runs on goroutines spawned in newPool, pulls tasks off a
// channel, and invokes the func-typed field fn. submit() only stores into
// that field. Only the field-based fixpoint can conclude that closures handed
// to submit run concurrently.
const miniPoolFixture = `package gap

type task struct {
	fn func(w int)
}

type pool struct {
	work chan *task
}

func newPool(workers int) *pool {
	p := &pool{work: make(chan *task, workers)}
	for w := 0; w < workers; w++ {
		go p.loop(w)
	}
	return p
}

func (p *pool) loop(w int) {
	for t := range p.work {
		t.fn(w)
	}
}

func (p *pool) submit(f func(w int)) {
	p.work <- &task{fn: f}
}
`

// TestFieldSpawnPropagationSeededPool checks the promotion chain on the
// in-memory mini pool: loop is concurrent (go p.loop), so the fn field is
// hot, so submit — which stores into it via a composite literal — must be
// promoted to a spawner, and closures passed to submit become concurrent
// contexts.
func TestFieldSpawnPropagationSeededPool(t *testing.T) {
	pkg := loadFixture(t, "gapbench/internal/gap", map[string]string{
		"pool.go": miniPoolFixture,
		"kernel.go": `package gap

func Count(p *pool, xs []int64) {
	p.submit(func(w int) {
		_ = xs[w]
	})
}
`,
	})
	prog := BuildProgram([]*Package{pkg})

	if !prog.ConcurrentFunc("(*gapbench/internal/gap.pool).loop") {
		t.Fatal("pool.loop must be concurrent (go p.loop)")
	}
	if !prog.SpawnsGo("(*gapbench/internal/gap.pool).submit") {
		t.Error("pool.submit must be promoted to a spawner: it stores a closure into the hot fn field")
	}
	if prog.SpawnsGo("(*gapbench/internal/gap.pool).loop") {
		t.Error("pool.loop invokes the field but stores nothing; it must not be promoted")
	}
}

// TestAllocRuleSeesFieldSpawnedClosures is the seeded-bug end-to-end test:
// an allocation inside a closure submitted to the mini pool sits on a
// parallel hot path of a timed kernel package, but no `go` statement or par
// helper is anywhere in sight. The alloc-in-timed-region rule must still
// fire, purely via the field-based spawn propagation.
func TestAllocRuleSeesFieldSpawnedClosures(t *testing.T) {
	pkg := loadFixture(t, "gapbench/internal/gap", map[string]string{
		"pool.go": miniPoolFixture,
		"kernel.go": `package gap

func Relax(p *pool, xs []int64) {
	p.submit(func(w int) {
		buf := make([]int64, 64)
		_ = buf
		_ = xs
	})
}
`,
	})
	got := runRuleOn(t, AllocInTimedRegion, pkg)
	found := false
	for _, d := range got {
		if strings.Contains(d, "kernel.go:5:") && strings.Contains(d, "allocation (make) on the parallel hot path") {
			found = true
		}
	}
	if !found {
		t.Fatalf("the make inside the submitted closure must be flagged; got %v", got)
	}
	// The setup-path make in newPool must stay clean: the pool constructor
	// runs once, outside any spawned region.
	for _, d := range got {
		if strings.Contains(d, "pool.go") {
			t.Errorf("unexpected finding in the pool scaffolding: %s", d)
		}
	}
}
