package core_test

import (
	"reflect"
	"runtime"
	"testing"
	"weak"

	"gapbench/internal/chaos"
	"gapbench/internal/core"
	"gapbench/internal/kernel"
)

// TestClosedInputIsUnreachable runs every kernel of all six frameworks, bare
// and wrapped in a chaos.Injector, in both modes over one input, then closes
// it: after a GC no framework, injector or runner may keep the input's views
// or any framework's prepared state reachable. A framework that memoises
// anything per *graph.Graph fails here.
func TestClosedInputIsUnreachable(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		fws := core.Frameworks()
		if wrapped {
			for i, f := range fws {
				fws[i] = chaos.Wrap(f, 1)
			}
		}
		in, err := core.LoadInput(core.GraphSpec{Name: "Twitter", Scale: 6, Seed: 3, Delta: 16, SourceSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := &core.Runner{Trials: 1, BaselineWorkers: 2, OptimizedWorkers: 2, Verify: true}
		results, err := r.RunSuite(fws, []*core.Input{in}, []kernel.Mode{kernel.Baseline, kernel.Optimized}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res.Status != core.OK {
				t.Fatalf("%s %s %s: %s: %s", res.Mode, res.Framework, res.Kernel, res.Status, res.Err)
			}
		}

		held := map[string]weak.Pointer[byte]{
			"input graph":     weakOf(in.Graph),
			"undirected view": weakOf(in.Undirected),
			"relabeled view":  weakOf(in.Relabeled),
		}
		if in.Graph == in.Undirected || in.Relabeled == nil {
			t.Fatal("the input needs three distinct views")
		}
		states := 0
		for _, f := range fws {
			for _, relabeled := range []bool{false, true} {
				st := in.Prepared(f, relabeled)
				if v := reflect.ValueOf(st); v.Kind() == reflect.Pointer {
					held[f.Name()+" prepared state"+map[bool]string{true: " (relabeled)"}[relabeled]] = weakOf(st)
					states++
				}
			}
		}
		if states == 0 {
			t.Fatal("no framework prepared a state to watch")
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		for what, w := range held {
			if w.Value() != nil {
				t.Errorf("wrapped=%t: the %s is still reachable after Close", wrapped, what)
			}
		}
		runtime.KeepAlive(fws)
		r.Close()
	}
}

// weakOf returns a weak pointer to the object a pointer value points at.
func weakOf(p any) weak.Pointer[byte] {
	return weak.Make((*byte)(reflect.ValueOf(p).UnsafePointer()))
}
