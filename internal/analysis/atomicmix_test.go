package analysis

import (
	"strings"
	"testing"
)

// TestAtomicPlainMix covers the direct (same-function) mix, the sequential
// phase-separation negative, and the no-atomic negative.
func TestAtomicPlainMix(t *testing.T) {
	checkRule(t, AtomicPlainMix, []ruleCase{
		{
			name: "plain write racing a CAS on the same slice",
			path: "gapbench/internal/demo",
			files: map[string]string{"bad.go": `package demo

import (
	"sync/atomic"

	"gapbench/internal/par"
)

func Claim(dist []int32) {
	par.Default().For(len(dist), 0, func(i int) {
		atomic.CompareAndSwapInt32(&dist[i], -1, 1)
	})
}

func Stomp(dist []int32) {
	par.Default().For(len(dist), 0, func(i int) {
		dist[i] = 7
	})
}
`},
			want: []string{`"dist" is accessed through sync/atomic`},
		},
		{
			name: "sequential init before parallel CAS is the GAP idiom, not a mix",
			path: "gapbench/internal/demo",
			files: map[string]string{"ok.go": `package demo

import (
	"sync/atomic"

	"gapbench/internal/par"
)

func Run(dist []int32) {
	for i := range dist {
		dist[i] = -1
	}
	par.Default().For(len(dist), 0, func(i int) {
		atomic.CompareAndSwapInt32(&dist[i], -1, 1)
	})
	var total int32
	for i := range dist {
		total += dist[i]
	}
	_ = total
}
`},
			want: nil,
		},
		{
			name: "plain-only concurrent access is par-closure-race's business, not ours",
			path: "gapbench/internal/demo",
			files: map[string]string{"ok.go": `package demo

import "gapbench/internal/par"

func Fill(dist []int32) {
	par.Default().For(len(dist), 0, func(i int) {
		dist[i] = 1
	})
}
`},
			want: nil,
		},
		{
			name: "struct field mixed across methods",
			path: "gapbench/internal/demo",
			files: map[string]string{"bad.go": `package demo

import (
	"sync/atomic"

	"gapbench/internal/par"
)

type Counter struct {
	hits int64
}

func (c *Counter) Add(n int) {
	par.Default().For(n, 0, func(i int) {
		atomic.AddInt64(&c.hits, 1)
	})
}

func (c *Counter) Drain(n int) {
	par.Default().For(n, 0, func(i int) {
		c.hits = 0
	})
}
`},
			want: []string{`"demo.hits" is accessed through sync/atomic`},
		},
	})
}

// TestAtomicPlainMixCrossFunction seeds the interprocedural case: the plain
// access sits in a lexically sequential helper, and only the call graph
// knows the helper runs inside a par.For closure.
func TestAtomicPlainMixCrossFunction(t *testing.T) {
	src := map[string]string{"bad.go": `package demo

import (
	"sync/atomic"

	"gapbench/internal/par"
)

// bump looks sequential on its own: no go statement, no par closure.
func bump(dist []int32, i int) {
	dist[i]++
}

func Relax(dist []int32) {
	par.Default().For(len(dist), 0, func(i int) {
		if atomic.LoadInt32(&dist[i]) > 0 {
			bump(dist, i)
		}
	})
}
`}
	got := runRule(t, AtomicPlainMix, loadFixture(t, "gapbench/internal/demo", src))
	if len(got) != 1 {
		t.Fatalf("want 1 diagnostic at the helper's plain access, got %v", got)
	}
	// The finding must be at bump's access (line 11), not at the call site.
	if want := "bad.go:11:"; !strings.Contains(got[0], want) {
		t.Errorf("diagnostic = %q, want it anchored at %s", got[0], want)
	}
	if want := `"dist" is accessed through sync/atomic`; !strings.Contains(got[0], want) {
		t.Errorf("diagnostic = %q, want substring %q", got[0], want)
	}
}
