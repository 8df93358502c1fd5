package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gapbench/internal/analysis"
)

// plant is one audit row: a bug planted in real tree code that one rule, by
// name, must report. Fixtures under testdata are written to be caught; these
// are not — each edits a non-test file of the module the way a careless change
// would, and DESIGN.md §8 tabulates them. A rule without a row here has never
// been shown to see its bug in code it guards, so a new rule lands with one.
type plant struct {
	rule string
	file string // module-relative, non-test, outside testdata
	what string // the bug, in one line
	// edits are old → new replacements; each old text occurs exactly once.
	edits [][2]string
	// pkgs are the gapvet patterns of the run: the mutated package plus
	// whatever the rule's call-graph chain needs (internal/par teaches the
	// Program which callees spawn).
	pkgs []string
	// perf rows need the compiler harvest; they are planted together and
	// share one.
	perf bool
}

var plants = []plant{
	{
		rule: "framework-isolation", file: "internal/gap/bfs.go",
		what:  "GAP imports the Galois reproduction",
		edits: [][2]string{{"\t\"gapbench/internal/graph\"\n", "\t_ \"gapbench/internal/galois\"\n\t\"gapbench/internal/graph\"\n"}},
		pkgs:  []string{"internal/gap"},
	},
	{
		rule: "par-closure-race", file: "internal/gap/pr.go",
		what:  "PageRank's gather closure accumulates into a captured variable instead of its partial",
		edits: [][2]string{{"PRDamping*sum\n\t\t\t\td += math.Abs(next - ranks[v])\n\t\t\t\tranks[v] = next\n\t\t\t}", "PRDamping*sum\n\t\t\t\tdangling += math.Abs(next - ranks[v])\n\t\t\t\tranks[v] = next\n\t\t\t}"}},
		pkgs:  []string{"internal/gap"},
	},
	{
		rule: "index-width", file: "internal/lagraph/algorithms.go",
		what:  "the PR prescale indexes the degree vector with an int32",
		edits: [][2]string{{"if m.degree[i] > 0 {", "if m.degree[int32(i)] > 0 {"}},
		pkgs:  []string{"internal/lagraph"},
	},
	{
		rule: "timed-region-purity", file: "internal/gap/bfs.go",
		what: "fmt.Println in DOBFS's round loop",
		edits: [][2]string{
			{"import (\n", "import (\n\t\"fmt\"\n"},
			{"\t\tif scoutCount > edgesToCheck/dobfsAlpha {\n", "\t\tfmt.Println(\"frontier\", queue.Size())\n\t\tif scoutCount > edgesToCheck/dobfsAlpha {\n"},
		},
		pkgs: []string{"internal/gap"},
	},
	{
		rule: "timed-region-purity", file: "internal/gap/bfs.go",
		what: "os.Stderr.WriteString in DOBFS's round loop", // a method on a package variable: silent before PR 23
		edits: [][2]string{
			{"import (\n", "import (\n\t\"os\"\n"},
			{"\t\tif scoutCount > edgesToCheck/dobfsAlpha {\n", "\t\t_, _ = os.Stderr.WriteString(\"round\\n\")\n\t\tif scoutCount > edgesToCheck/dobfsAlpha {\n"},
		},
		pkgs: []string{"internal/gap"},
	},
	{
		rule: "unchecked-error", file: "cmd/graphgen/main.go",
		what:  "graphgen drops SaveSG's error",
		edits: [][2]string{{"\t\tif err := g.SaveSG(path); err != nil {\n\t\t\treturn err\n\t\t}\n", "\t\tg.SaveSG(path)\n"}},
		pkgs:  []string{"cmd/graphgen"},
	},
	{
		rule: "atomic-plain-mix", file: "internal/gap/sssp.go",
		what:  "delta-stepping's drain closure reads dist[u] plainly while relax CASes it",
		edits: [][2]string{{"for _, u := range batch {\n\t\t\t\t\tdu := atomic.LoadInt32(&dist[u])", "for _, u := range batch {\n\t\t\t\t\tdu := dist[u]"}},
		pkgs:  []string{"internal/gap", "internal/par"},
	},
	{
		rule: "lock-order", file: "internal/serve/breaker.go",
		what: "ABBA between breakerSet.mu and breaker.mu", // two structs, one field name: silent before PR 23
		edits: [][2]string{
			{"\t\tb = &breaker{}\n\t\ts.pairs[key] = b\n", "\t\tb = &breaker{}\n\t\tb.mu.Lock()\n\t\tb.state = breakerClosed\n\t\tb.mu.Unlock()\n\t\ts.pairs[key] = b\n"},
			{"\t\tb.state = breakerOpen\n\t\tb.openedAt = time.Now()\n\t}\n\tb.mu.Unlock()\n}\n\n// OnAbandon", "\t\tb.state = breakerOpen\n\t\tb.openedAt = time.Now()\n\t\ts.mu.Lock()\n\t\ts.pairs[framework+\"|\"+kernelName] = b\n\t\ts.mu.Unlock()\n\t}\n\tb.mu.Unlock()\n}\n\n// OnAbandon"},
		},
		pkgs: []string{"internal/serve"},
	},
	{
		rule: "alloc-in-timed-region", file: "internal/gap/pr.go",
		what:  "a scratch slice made per vertex inside PageRank's gather closure",
		edits: [][2]string{{"\t\t\t\tsum := 0.0\n\t\t\t\tfor _, u := range g.InNeighbors(graph.NodeID(v)) {\n", "\t\t\t\tsum := 0.0\n\t\t\t\tscratch := make([]float64, 1)\n\t\t\t\t_ = scratch\n\t\t\t\tfor _, u := range g.InNeighbors(graph.NodeID(v)) {\n"}},
		pkgs:  []string{"internal/gap", "internal/par"},
	},
	{
		rule: "swallowed-panic", file: "internal/core/runner.go",
		what:  "checkOracle nil-checks the recovered value and drops it from the error",
		edits: [][2]string{{"\"oracle panicked on kernel output: %v\", p)", "\"oracle panicked on kernel output\")"}},
		pkgs:  []string{"internal/core"},
	},
	{
		rule: "graph-mutation", file: "internal/gap/pr.go",
		what:  "PageRank swaps two entries of a vertex's in-neighbour row in place",
		edits: [][2]string{{"\t\t\t\tfor _, u := range g.InNeighbors(graph.NodeID(v)) {\n", "\t\t\t\tin := g.InNeighbors(graph.NodeID(v))\n\t\t\t\tif len(in) > 1 {\n\t\t\t\t\tin[0], in[1] = in[1], in[0]\n\t\t\t\t}\n\t\t\t\tfor _, u := range in {\n"}},
		pkgs:  []string{"internal/gap", "internal/graph"},
	},
	{
		rule: "arena-escape", file: "cmd/graphgen/main.go",
		what:  "graphgen reads a neighbour row after closing the graph",
		edits: [][2]string{{"\t\tif err := g.Close(); err != nil {\n\t\t\treturn err\n\t\t}\n\t}\n\treturn nil\n", "\t\tif err := g.Close(); err != nil {\n\t\t\treturn err\n\t\t}\n\t\tfmt.Println(len(g.OutNeighbors(0)))\n\t}\n\treturn nil\n"}},
		pkgs:  []string{"cmd/graphgen", "internal/graph"},
	},
	{
		rule: "cancel-liveness", file: "internal/gkc/kernels.go",
		what: "brandes' serial small-frontier arm hoisted into a drain loop of its own, without the Interrupted() poll",
		edits: [][2]string{{
			"\t\tfor len(current) > 0 {\n\t\t\tif exec.Interrupted() {\n\t\t\t\treturn scores\n\t\t\t}\n",
			"\t\tfor len(current) > 0 && len(current) < serialThreshold {\n" +
				"\t\t\td := int32(len(levels))\n\t\t\tvar next []graph.NodeID\n" +
				"\t\t\tfor _, u := range current {\n\t\t\t\tfor _, v := range g.OutNeighbors(u) {\n" +
				"\t\t\t\t\tif depth[v] < 0 {\n\t\t\t\t\t\tdepth[v] = d\n\t\t\t\t\t\tnext = append(next, v)\n\t\t\t\t\t}\n\t\t\t\t}\n\t\t\t}\n" +
				"\t\t\tlevels = append(levels, next)\n\t\t\tcurrent = next\n\t\t}\n" +
				"\t\tfor len(current) > 0 {\n\t\t\tif exec.Interrupted() {\n\t\t\t\treturn scores\n\t\t\t}\n",
		}},
		pkgs: []string{"internal/gkc", "internal/par"},
	},
	{
		rule: "escape-in-kernel", file: "internal/gap/pr.go", perf: true,
		what:  "a degree-sized scratch slice made per vertex inside PageRank's gather closure",
		edits: [][2]string{{"\t\t\t\tsum := 0.0\n\t\t\t\tfor _, u := range g.InNeighbors(graph.NodeID(v)) {\n", "\t\t\t\tsum := 0.0\n\t\t\t\tscratch := make([]float64, g.OutDegree(graph.NodeID(v)))\n\t\t\t\t_ = scratch\n\t\t\t\tfor _, u := range g.InNeighbors(graph.NodeID(v)) {\n"}},
		pkgs:  []string{"internal/gap", "internal/par"},
	},
	{
		rule: "closure-capture-hot", file: "internal/gap/bfs.go", perf: true,
		what: "tdStep goes back to a scout accumulator of its own, captured by the chunk closure: one heap cell per BFS round",
		edits: [][2]string{
			{"\tscout.Store(0)\n", "\tvar fresh atomic.Int64\n"},
			{"\t\tscout.Add(localScout)\n", "\t\tfresh.Add(localScout)\n"},
			{"\treturn scout.Load()\n", "\treturn fresh.Load()\n"},
		},
		pkgs: []string{"internal/gap", "internal/par"},
	},
	{
		rule: "bce-miss", file: "internal/galois/executor.go", perf: true,
		what: "obim.next scans the live o.levels field instead of its snapshot: a pointer-field index the range already bounds, re-loaded after every get()",
		edits: [][2]string{{
			"\to.mu.Lock()\n\tlevels := o.levels\n\to.mu.Unlock()\n\tfor p := int(start); p < len(levels); p++ {\n\t\tif c := levels[p].get(); c != nil {\n",
			"\tfor p := range o.levels {\n\t\tif int64(p) < start {\n\t\t\tcontinue\n\t\t}\n\t\tif c := o.levels[p].get(); c != nil {\n",
		}},
		pkgs: []string{"internal/galois", "internal/par"},
	},
	{
		rule: "inline-miss", file: "internal/gap/bc.go", perf: true,
		what:  "bcForward flushes to the shared appender per discovered vertex instead of per chunk",
		edits: [][2]string{{"atomic.CompareAndSwapInt32(&depth[v], -1, d) {\n\t\t\t\t\t\tlocal = append(local, v)\n", "atomic.CompareAndSwapInt32(&depth[v], -1, d) {\n\t\t\t\t\t\tsink.flush([]graph.NodeID{v})\n"}},
		pkgs:  []string{"internal/gap", "internal/par"},
	},
}

// TestAudit is the analyser's acceptance harness: on a temp copy of the
// module's Go files the unmutated tree must be clean under every rule, and
// each plant, applied alone (the -perf plants together, sharing one compiler
// harvest), must make its rule fire in the file it edits.
func TestAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("the audit re-analyses the module per planted bug")
	}
	src, err := analysis.FindModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	copyModule(t, src, root)

	if code, stdout, stderr := gapvet(t, "-root", root, "-perf", "./..."); code != 0 || stdout != "" {
		t.Fatalf("unmutated copy is not clean: exit %d\n%s%s", code, stdout, stderr)
	}

	covered := map[string]bool{}
	var perf []plant
	for _, p := range plants {
		covered[p.rule] = true
		if strings.HasSuffix(p.file, "_test.go") || strings.Contains(p.file, "testdata") {
			t.Errorf("%s: plants edit real non-test code, not %s", p.rule, p.file)
		}
		if p.perf {
			perf = append(perf, p)
			continue
		}
		t.Run(p.rule+"/"+p.what, func(t *testing.T) {
			restore := p.apply(t, root)
			defer restore()
			_, stdout, stderr := gapvet(t, append([]string{"-root", root}, p.pkgs...)...)
			p.mustFire(t, stdout, stderr)
		})
	}
	for _, a := range analysis.Analyzers() {
		if !covered[a.Name] {
			t.Errorf("rule %s has no audit row", a.Name)
		}
	}

	t.Run("perf", func(t *testing.T) {
		args := []string{"-root", root, "-perf"}
		for _, p := range perf {
			defer p.apply(t, root)()
			for _, pkg := range p.pkgs {
				if !slices.Contains(args, pkg) {
					args = append(args, pkg)
				}
			}
		}
		_, stdout, stderr := gapvet(t, args...)
		for _, p := range perf {
			p.mustFire(t, stdout, stderr)
		}
	})
}

// apply plants the bug in the copy and returns the function that removes it.
func (p plant) apply(t *testing.T, root string) (restore func()) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(p.file))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(orig)
	for _, e := range p.edits {
		if n := strings.Count(text, e[0]); n != 1 {
			t.Fatalf("%s: plant text occurs %d times in %s, want exactly once:\n%s", p.rule, n, p.file, e[0])
		}
		text = strings.Replace(text, e[0], e[1], 1)
	}
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// mustFire requires a finding of the plant's rule in the plant's file.
func (p plant) mustFire(t *testing.T, stdout, stderr string) {
	t.Helper()
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, p.file+":") && strings.Contains(line, "["+p.rule+"]") {
			return
		}
	}
	t.Errorf("%s is silent on its plant in %s (%s)\nstdout:\n%sstderr:\n%s", p.rule, p.file, p.what, stdout, stderr)
}

// copyModule copies go.mod and every .go file of the module at src into dst,
// skipping what gapvet's ./... skips: hidden and testdata directories and
// nested modules.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			if path != src {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying the module: %v", err)
	}
}
