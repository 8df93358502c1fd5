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

// TestRunSandboxedOutcomes is the containment table: what each way an attempt
// can end reports, and that the machine's token is cleared on every
// non-abandoned return.
func TestRunSandboxedOutcomes(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	returns := func(v int, err error) func() func() (int, error) {
		return func() func() (int, error) {
			return func() (int, error) { return v, err }
		}
	}
	cases := []struct {
		name     string
		deadline time.Duration // 0 = none
		run      func(tok *par.CancelToken) func() func() (int, error)
		status   core.Status
		val      int
		errHas   string
		stack    bool
	}{
		{name: "run returns",
			run:    func(*par.CancelToken) func() func() (int, error) { return returns(7, nil) },
			status: core.OK, val: 7},
		{name: "run panics",
			run: func(*par.CancelToken) func() func() (int, error) {
				return func() func() (int, error) { panic("kernel exploded") }
			},
			status: core.Panicked, errHas: "fw BFS on g: panic: kernel exploded", stack: true},
		{name: "finish returns an error",
			run:    func(*par.CancelToken) func() func() (int, error) { return returns(7, errors.New("oracle says no")) },
			status: core.VerifyFailed, errHas: "fw BFS on g: oracle says no"},
		{name: "finish panics",
			run: func(*par.CancelToken) func() func() (int, error) {
				return func() func() (int, error) {
					return func() (int, error) { panic("reduce exploded") }
				}
			},
			status: core.Panicked, errHas: "reduce exploded", stack: true},
		{name: "token fired and the kernel returned", deadline: time.Hour,
			run: func(tok *par.CancelToken) func() func() (int, error) {
				return func() func() (int, error) {
					tok.Cancel() // the kernel drained cooperatively; its output is partial
					return func() (int, error) { return 7, errors.New("finish must not run on partial output") }
				}
			},
			status: core.TimedOut, errHas: "fw BFS on g: deadline (1h0m0s) exceeded"},
		{name: "token fired with no deadline waits for the kernel", // no timer: Grace never applies
			run: func(tok *par.CancelToken) func() func() (int, error) {
				return func() func() (int, error) {
					tok.Cancel()
					time.Sleep(20 * time.Millisecond) // ≫ Grace
					return func() (int, error) { return 7, nil }
				}
			},
			status: core.TimedOut, errHas: "exceeded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := par.NewMachine(2)
			defer m.Close()
			tok := par.NewCancelToken()
			sb := core.Sandbox{Framework: "fw", Kernel: core.BFS, Graph: "g", Machine: m, Token: tok, Grace: time.Millisecond}
			if tc.deadline > 0 {
				sb.Deadline, sb.Limit = time.Now().Add(tc.deadline), tc.deadline
			}
			val, out := core.RunSandboxed(sb, tc.run(tok))
			if out.Status != tc.status || val != tc.val || out.Abandoned {
				t.Fatalf("got (%d, %+v), want status %v value %d, not abandoned", val, out, tc.status, tc.val)
			}
			if !strings.Contains(out.Err, tc.errHas) {
				t.Errorf("err %q does not contain %q", out.Err, tc.errHas)
			}
			if (out.Stack != "") != tc.stack || (tc.stack && !strings.Contains(out.Stack, "sandbox_test.go")) {
				t.Errorf("stack = %q, want one naming the panicking frame: %v", out.Stack, tc.stack)
			}
			if m.CancelToken() != nil {
				t.Error("token still installed on the machine after a non-abandoned return")
			}
		})
	}
}

// TestRunSandboxedAbandons: a kernel that ignores its fired token costs the
// caller deadline + grace, not the kernel's running time; the machine keeps
// the token; and the goroutine's late result is absorbed by the buffer — it
// neither blocks (CheckGoroutines) nor reaches the caller.
func TestRunSandboxedAbandons(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(2)
	defer m.Close()
	tok := par.NewCancelToken()
	release := make(chan struct{})
	woke := make(chan struct{})
	start := time.Now()
	val, out := core.RunSandboxed(core.Sandbox{
		Framework: "fw", Kernel: core.BFS, Graph: "g", Machine: m, Token: tok,
		Deadline: start.Add(10 * time.Millisecond), Limit: 10 * time.Millisecond, Grace: 10 * time.Millisecond,
	}, func() func() (int, error) {
		defer close(woke)
		<-release // deaf to the token
		return func() (int, error) { return 7, nil }
	})
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond || elapsed > 5*time.Second {
		t.Errorf("returned after %v, want deadline + grace (20ms)", elapsed)
	}
	if out.Status != core.TimedOut || !out.Abandoned || val != 0 ||
		!strings.Contains(out.Err, "ignored cancellation for 10ms past the 10ms deadline; machine abandoned") {
		t.Fatalf("got (%d, %+v), want an abandoned TimedOut", val, out)
	}
	if !tok.Cancelled() || m.CancelToken() != tok {
		t.Error("abandonment must fire the token and leave it installed for the stray kernel")
	}
	close(release)
	<-woke
}

// TestRunSandboxedBrokenSeal: under -tags=graphguard a kernel that wrote
// through a sealed view is Panicked, naming the array, whatever it returned.
func TestRunSandboxedBrokenSeal(t *testing.T) {
	requireGraphguard(t)
	defer testutil.CheckGoroutines(t)()
	g, err := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	g.Seal()
	m := par.NewMachine(2)
	defer m.Close()
	val, out := core.RunSandboxed(core.Sandbox{
		Framework: "fw", Kernel: core.BFS, Graph: "g", Machine: m, Token: par.NewCancelToken(), Seals: [3]*graph.Graph{nil, g},
	}, func() func() (int, error) {
		_, neigh := g.RawOut()
		neigh[0]++
		return func() (int, error) { return 7, nil }
	})
	if out.Status != core.Panicked || val != 0 || !strings.Contains(out.Err, "graphguard") || !strings.Contains(out.Err, "outNeigh") {
		t.Fatalf("got (%d, %+v), want Panicked naming graphguard and outNeigh", val, out)
	}
	if out.Seconds <= 0 {
		t.Error("the timed part returned before the seal check: Seconds must be kept")
	}
}
