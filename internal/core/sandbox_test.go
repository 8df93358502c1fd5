package core_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
)

// drain drains p, failing the test if a lease or a reaper is left.
func drain(t *testing.T, p *par.Pool) {
	t.Helper()
	if err := p.Drain(time.Second); err != nil {
		t.Error(err)
	}
}

// checkPoolIdle asserts that p holds size idle machines, each width wide
// with no token installed, and no lease outstanding.
func checkPoolIdle(t *testing.T, p *par.Pool, size, width int) {
	t.Helper()
	if n := p.Outstanding(); n != 0 {
		t.Errorf("pool has %d lease(s) outstanding after the attempt, want 0", n)
	}
	tok := par.NewDeadlineToken(time.Second)
	for i := 0; i < size; i++ {
		l, err := p.Acquire(tok)
		if err != nil {
			t.Fatalf("idle machine %d of %d: %v", i+1, size, err)
		}
		defer l.Release()
		if m := l.Machine(); m.Size() != width || m.CancelToken() != nil {
			t.Errorf("idle machine %d: width %d token %v, want width %d and no token", i+1, m.Size(), m.CancelToken(), width)
		}
	}
}

// TestRunSandboxedOutcomes is the containment table: what each way an attempt
// can end reports, that the lease is released on every non-abandoned return
// with the machine's token cleared, and that a draining pool runs nothing.
func TestRunSandboxedOutcomes(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	returns := func(v int, err error) func(*par.Machine) func() (int, error) {
		return func(*par.Machine) func() (int, error) {
			return func() (int, error) { return v, err }
		}
	}
	cases := []struct {
		name     string
		deadline time.Duration // 0 = none
		run      func(tok *par.CancelToken) func(*par.Machine) func() (int, error)
		status   core.Status
		val      int
		errHas   string
		stack    bool
	}{
		{name: "run returns",
			run:    func(*par.CancelToken) func(*par.Machine) func() (int, error) { return returns(7, nil) },
			status: core.OK, val: 7},
		{name: "run panics",
			run: func(*par.CancelToken) func(*par.Machine) func() (int, error) {
				return func(*par.Machine) func() (int, error) { panic("kernel exploded") }
			},
			status: core.Panicked, errHas: "fw BFS on g: panic: kernel exploded", stack: true},
		{name: "finish returns an error",
			run: func(*par.CancelToken) func(*par.Machine) func() (int, error) {
				return returns(7, errors.New("oracle says no"))
			},
			status: core.VerifyFailed, errHas: "fw BFS on g: oracle says no"},
		{name: "finish panics",
			run: func(*par.CancelToken) func(*par.Machine) func() (int, error) {
				return func(*par.Machine) func() (int, error) {
					return func() (int, error) { panic("reduce exploded") }
				}
			},
			status: core.Panicked, errHas: "reduce exploded", stack: true},
		{name: "token fired and the kernel returned", deadline: time.Hour,
			run: func(tok *par.CancelToken) func(*par.Machine) func() (int, error) {
				return func(*par.Machine) func() (int, error) {
					tok.Cancel() // the kernel drained cooperatively; its output is partial
					return func() (int, error) { return 7, errors.New("finish must not run on partial output") }
				}
			},
			status: core.TimedOut, errHas: "fw BFS on g: deadline (1h0m0s) exceeded"},
		{name: "token fired with no deadline waits for the kernel", // no timer: Grace never applies
			run: func(tok *par.CancelToken) func(*par.Machine) func() (int, error) {
				return func(*par.Machine) func() (int, error) {
					tok.Cancel()
					time.Sleep(20 * time.Millisecond) // ≫ Grace
					return func() (int, error) { return 7, nil }
				}
			},
			status: core.TimedOut, errHas: "exceeded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := par.NewPool(2, 2)
			defer drain(t, p)
			tok := par.NewCancelToken()
			sb := core.Sandbox{Framework: "fw", Kernel: core.BFS, Graph: "g", Token: tok, Grace: time.Millisecond}
			if tc.deadline > 0 {
				sb.Deadline, sb.Limit = time.Now().Add(tc.deadline), tc.deadline
			}
			val, out, err := core.RunSandboxed(p, sb, tc.run(tok))
			if err != nil || out.Status != tc.status || val != tc.val || out.Abandoned {
				t.Fatalf("got (%d, %+v), want status %v value %d, not abandoned", val, out, tc.status, tc.val)
			}
			if !strings.Contains(out.Err, tc.errHas) {
				t.Errorf("err %q does not contain %q", out.Err, tc.errHas)
			}
			if (out.Stack != "") != tc.stack || (tc.stack && !strings.Contains(out.Stack, "sandbox_test.go")) {
				t.Errorf("stack = %q, want one naming the panicking frame: %v", out.Stack, tc.stack)
			}
			if p.Abandoned() != 0 {
				t.Errorf("a non-abandoned attempt raised Abandoned to %d", p.Abandoned())
			}
			checkPoolIdle(t, p, 2, 2)
		})
	}
	t.Run("pool draining", func(t *testing.T) {
		p := par.NewPool(2, 2)
		drain(t, p)
		ran := false
		_, out, err := core.RunSandboxed(p, core.Sandbox{Token: par.NewCancelToken()},
			func(*par.Machine) func() (int, error) { ran = true; return nil })
		if !errors.Is(err, par.ErrPoolDraining) || ran || out != (core.Outcome{}) {
			t.Fatalf("draining pool: err %v ran %v outcome %+v, want ErrPoolDraining and nothing run", err, ran, out)
		}
		if p.Outstanding() != 0 || p.Abandoned() != 0 {
			t.Errorf("draining pool: %d outstanding, %d abandoned, want 0 and 0", p.Outstanding(), p.Abandoned())
		}
	})
}

// TestRunSandboxedAbandons: a kernel that ignores its fired token costs the
// caller deadline + grace, not the kernel's running time; the lease is
// abandoned, so the pool counts it and is back to full size at the same
// width while the stuck machine keeps the token; and the goroutine's late
// result is absorbed by the buffer — it neither blocks (CheckGoroutines) nor
// reaches the caller. The pool's reaper joins the stuck machine.
func TestRunSandboxedAbandons(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	p := par.NewPool(2, 3)
	tok := par.NewCancelToken()
	release := make(chan struct{})
	woke := make(chan struct{})
	var stuck *par.Machine
	start := time.Now()
	val, out, err := core.RunSandboxed(p, core.Sandbox{
		Framework: "fw", Kernel: core.BFS, Graph: "g", Token: tok,
		Deadline: start.Add(10 * time.Millisecond), Limit: 10 * time.Millisecond, Grace: 10 * time.Millisecond,
	}, func(m *par.Machine) func() (int, error) {
		defer close(woke)
		stuck = m
		<-release // deaf to the token
		return func() (int, error) { return 7, nil }
	})
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond || elapsed > 5*time.Second {
		t.Errorf("returned after %v, want deadline + grace (20ms)", elapsed)
	}
	if err != nil || out.Status != core.TimedOut || !out.Abandoned || val != 0 ||
		!strings.Contains(out.Err, "ignored cancellation for 10ms past the 10ms deadline; machine abandoned") {
		t.Fatalf("got (%d, %+v), want an abandoned TimedOut", val, out)
	}
	if p.Abandoned() != 1 {
		t.Errorf("Abandoned = %d, want 1", p.Abandoned())
	}
	checkPoolIdle(t, p, 2, 3)
	close(release)
	<-woke
	if !tok.Cancelled() || stuck.CancelToken() != tok {
		t.Error("abandonment must fire the token and leave it installed for the stray kernel")
	}
	drain(t, p)
}

// TestRunSandboxedBrokenSeal: under -tags=check a kernel that wrote
// through a sealed view is Panicked, naming the array, whatever it returned.
func TestRunSandboxedBrokenSeal(t *testing.T) {
	requireGraphguard(t)
	defer testutil.CheckGoroutines(t)()
	g, err := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	g.Seal()
	p := par.NewPool(1, 2)
	defer drain(t, p)
	val, out, err := core.RunSandboxed(p, core.Sandbox{
		Framework: "fw", Kernel: core.BFS, Graph: "g", Token: par.NewCancelToken(), Seals: [3]*graph.Graph{nil, g},
	}, func(*par.Machine) func() (int, error) {
		_, neigh := g.RawOut()
		neigh[0]++
		return func() (int, error) { return 7, nil }
	})
	if err != nil || out.Status != core.Panicked || val != 0 || !strings.Contains(out.Err, "graphguard") || !strings.Contains(out.Err, "outNeigh") {
		t.Fatalf("got (%d, %+v), want Panicked naming graphguard and outNeigh", val, out)
	}
	if out.Seconds <= 0 {
		t.Error("the timed part returned before the seal check: Seconds must be kept")
	}
}
