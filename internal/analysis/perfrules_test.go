package analysis

import (
	"fmt"
	"strings"
	"testing"
)

// markPos returns the 1-based line and column of the first occurrence of
// marker in src — the tests anchor synthetic compiler facts to source markers
// instead of hard-coded line numbers, so fixtures can be edited freely.
func markPos(t *testing.T, src, marker string) (int, int) {
	t.Helper()
	for i, l := range strings.Split(src, "\n") {
		if j := strings.Index(l, marker); j >= 0 {
			return i + 1, j + 1
		}
	}
	t.Fatalf("marker %q not found in fixture", marker)
	return 0, 0
}

// fact renders one synthetic diagnostic line positioned at a source marker.
func fact(t *testing.T, src, marker, msg string) string {
	t.Helper()
	ln, col := markPos(t, src, marker)
	return fmt.Sprintf("bad.go:%d:%d: %s", ln, col, msg)
}

// runPerfRule applies one compiler-assisted analyzer to a fixture with a
// synthetic diagnostics stream, the real internal/par riding along for
// spawn-awareness (mirroring how cmd/gapvet invokes Run under -perf).
func runPerfRule(t *testing.T, a *Analyzer, pkg *Package, diagnostics []string) []string {
	t.Helper()
	cf := ParseCompilerDiagnostics(strings.NewReader(strings.Join(diagnostics, "\n") + "\n"))
	return render(t, a, cf, []*Package{pkg, parPackage(t)})
}

const escapeFixture = `package gap

import "gapbench/internal/par"

type box struct{ v int }

var hold *box

func keep(b *box) { hold = b }

func HotEscape(xs []int64) {
	par.Default().For(len(xs), 0, func(i int) {
		for j := 0; j < 4; j++ {
			b := &box{v: 1}
			keep(b)
		}
	})
}

func ColdEscape(xs []int64) {
	for j := 0; j < 4; j++ {
		b := &box{v: 2}
		keep(b)
	}
}

func NoLoopEscape(xs []int64) {
	par.Default().For(len(xs), 0, func(k int) {
		b := &box{v: 3}
		keep(b)
	})
}

func Justified(xs []int64) {
	par.Default().For(len(xs), 0, func(m int) {
		for j := 0; j < 4; j++ {
			//gapvet:ignore escape-in-kernel -- fixture: amortized pool growth
			b := &box{v: 4}
			keep(b)
		}
	})
}

func Rounds(xs []int64) {
	for r := 0; r < 4; r++ {
		par.Default().For(len(xs), 0, func(q int) {
			_ = xs[q]
		})
	}
}
`

// TestEscapeInKernel: only an escape inside a loop, on the parallel hot
// path, that is not the spawned closure itself and not suppressed, fires.
func TestEscapeInKernel(t *testing.T) {
	src := escapeFixture
	pkg := loadFixture(t, "gapbench/internal/gap", map[string]string{"bad.go": src})
	got := runPerfRule(t, EscapeInKernel, pkg, []string{
		fact(t, src, "&box{v: 1}", "&box{...} escapes to heap"),
		fact(t, src, "&box{v: 2}", "&box{...} escapes to heap"),     // not on hot path
		fact(t, src, "&box{v: 3}", "&box{...} escapes to heap"),     // no enclosing loop
		fact(t, src, "&box{v: 4}", "&box{...} escapes to heap"),     // suppressed
		fact(t, src, "func(q int)", "func literal escapes to heap"), // the spawned closure itself
		"bad.go:9999:1: &box{...} escapes to heap",                  // stale position: tolerated
	})
	if len(got) != 1 || !strings.Contains(got[0], "HotEscape") || !strings.Contains(got[0], "parallel hot loop") {
		t.Fatalf("want exactly the HotEscape finding, got %v", got)
	}
}

// TestEscapeSkipsMovedPositions: a moved-to-heap fact at the same position
// hands the site to closure-capture-hot; escape-in-kernel must stay quiet.
func TestEscapeSkipsMovedPositions(t *testing.T) {
	src := escapeFixture
	pkg := loadFixture(t, "gapbench/internal/gap", map[string]string{"bad.go": src})
	got := runPerfRule(t, EscapeInKernel, pkg, []string{
		fact(t, src, "&box{v: 1}", "b escapes to heap"),
		fact(t, src, "&box{v: 1}", "moved to heap: b"),
	})
	if len(got) != 0 {
		t.Fatalf("escape co-located with moved-to-heap must defer to closure-capture-hot, got %v", got)
	}
}

// TestEscapeColdPackage: the same code and facts in a non-kernel package
// produce nothing — the rules only patrol timed kernel packages.
func TestEscapeColdPackage(t *testing.T) {
	src := escapeFixture
	pkg := loadFixture(t, "gapbench/internal/core", map[string]string{"bad.go": src})
	got := runPerfRule(t, EscapeInKernel, pkg, []string{
		fact(t, src, "&box{v: 1}", "&box{...} escapes to heap"),
	})
	if len(got) != 0 {
		t.Fatalf("non-kernel package must be exempt, got %v", got)
	}
}

const captureFixture = `package gap

import "gapbench/internal/par"

func Round(xs []int64) int64 {
	var total int64
	par.Default().For(len(xs), 0, func(i int) {
		total += xs[i]
	})
	return total
}

func Drive(xs []int64) int64 {
	var s int64
	for r := 0; r < 8; r++ {
		s += Round(xs)
	}
	return s
}

func ColdRound(xs []int64) int64 {
	var acc int64
	par.Default().For(len(xs), 0, func(k int) {
		acc += xs[k]
	})
	return acc
}

func DriveOnce(xs []int64) int64 {
	return ColdRound(xs)
}

func Plain(xs []int64) func() {
	var n int64
	f := func() { n++ }
	for r := 0; r < 4; r++ {
		f()
	}
	return f
}
`

// TestClosureCaptureHot: a heap-moved variable captured by a par closure
// fires only when the enclosing function is called from a hot loop, and the
// message names the calling loop.
func TestClosureCaptureHot(t *testing.T) {
	src := captureFixture
	pkg := loadFixture(t, "gapbench/internal/gap", map[string]string{"bad.go": src})
	got := runPerfRule(t, ClosureCaptureHot, pkg, []string{
		fact(t, src, "total int64", "moved to heap: total"),
		fact(t, src, "acc int64", "moved to heap: acc"), // caller not in a loop
		fact(t, src, "n int64", "moved to heap: n"),     // closure is not spawned
	})
	if len(got) != 1 {
		t.Fatalf("want exactly the Round/total finding, got %v", got)
	}
	for _, want := range []string{`captures "total"`, "Round", "called from a loop in Drive"} {
		if !strings.Contains(got[0], want) {
			t.Errorf("finding %q missing %q", got[0], want)
		}
	}
}

const bceFixture = `package gap

import "gapbench/internal/par"

type state struct{ dist []int32 }

func (s *state) RelaxAll(xs []int64) {
	par.Default().For(len(xs), 0, func(w int) {
		for i := 0; i < len(s.dist); i++ {
			s.dist[i]++
		}
	})
}

func (s *state) Sweep(xs []int64) {
	par.Default().For(len(xs), 0, func(w int) {
		d := int32(1)
		for i := range s.dist {
			s.dist[i] += d
		}
	})
}

func (s *state) Unproven(xs []int64, idx []int32) {
	par.Default().For(len(xs), 0, func(w int) {
		for i := 0; i < len(idx); i++ {
			s.dist[idx[i]]++
		}
	})
}

func (s *state) Nested(xs []int64) {
	par.Default().For(len(xs), 0, func(w int) {
		for i := 0; i < len(s.dist); i++ {
			s.dist[i]--
			for k := 0; k < 2; k++ {
				_ = k
			}
		}
	})
}
`

// TestBCEMiss: retained bounds checks fire only when the loop shape proves
// the check eliminable (three-clause i < len(s) or range over the same
// expression), in a leaf loop; indirect indices and non-leaf loops stay
// quiet.
func TestBCEMiss(t *testing.T) {
	src := bceFixture
	pkg := loadFixture(t, "gapbench/internal/gap", map[string]string{"bad.go": src})
	got := runPerfRule(t, BCEMiss, pkg, []string{
		fact(t, src, "s.dist[i]++", "Found IsInBounds"),
		fact(t, src, "s.dist[i] += d", "Found IsInBounds"),
		fact(t, src, "s.dist[idx[i]]++", "Found IsInBounds"), // index not provably bounded
		fact(t, src, "s.dist[i]--", "Found IsInBounds"),      // not a leaf loop
	})
	if len(got) != 2 {
		t.Fatalf("want the RelaxAll and Sweep findings, got %v", got)
	}
	for i, fn := range []string{"RelaxAll", "Sweep"} {
		for _, want := range []string{fn, "bounds check on s.dist", "hoist s.dist into a local"} {
			if !strings.Contains(got[i], want) {
				t.Errorf("finding %d = %q, missing %q", i, got[i], want)
			}
		}
	}
}

const inlineFixture = `package gap

import "gapbench/internal/par"

var total int64

func costly(u, v int, d []int32) {
	d[u%len(d)] += int32(v)
}

func huge(u, v int, d []int32) {
	d[v%len(d)] -= int32(u)
}

func defers(u, v int, d []int32) {
	defer func() { total++ }()
	d[u%len(d)] ^= int32(v)
}

func Kernel(d []int32, xs []int64) {
	par.Default().For(len(xs), 0, func(i int) {
		for j := 0; j < len(d); j++ {
			costly(i, j, d)
			huge(i, j, d)
			defers(i, j, d)
		}
	})
}

func Cold(d []int32) {
	costly(0, 0, d)
}
`

// TestInlineMiss: a hot-loop call to a callee the compiler refused to inline
// fires only when the overrun is within the slack (a fast-path split is
// realistic); structurally-large callees, non-cost reasons, and cold call
// sites stay quiet.
func TestInlineMiss(t *testing.T) {
	src := inlineFixture
	pkg := loadFixture(t, "gapbench/internal/gap", map[string]string{"bad.go": src})
	got := runPerfRule(t, InlineMiss, pkg, []string{
		fact(t, src, "func costly", "cannot inline costly: function too complex: cost 95 exceeds budget 80"),
		fact(t, src, "func huge", "cannot inline huge: function too complex: cost 300 exceeds budget 80"),
		fact(t, src, "func defers", "cannot inline defers: unhandled op DEFER"),
	})
	if len(got) != 1 {
		t.Fatalf("want exactly the costly call-site finding, got %v", got)
	}
	for _, want := range []string{"costly", "Kernel", "cost 95 exceeds budget 80", "split a fast path"} {
		if !strings.Contains(got[0], want) {
			t.Errorf("finding %q missing %q", got[0], want)
		}
	}
}

// TestPerfRulesSkippedWithoutFacts: without a harvested fact table the perf
// rules do not run at all — plain `gapvet` (no -perf) must not pay for them
// or half-fire.
func TestPerfRulesSkippedWithoutFacts(t *testing.T) {
	src := escapeFixture
	pkg := loadFixture(t, "gapbench/internal/gap", map[string]string{"bad.go": src})
	for _, a := range []*Analyzer{EscapeInKernel, ClosureCaptureHot, BCEMiss, InlineMiss} {
		if got := runRule(t, a, pkg); len(got) != 0 {
			t.Errorf("%s ran without compiler facts: %v", a.Name, got)
		}
	}
}
