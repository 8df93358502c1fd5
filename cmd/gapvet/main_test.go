package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gapbench/internal/analysis"
)

// gapvet runs the CLI against the given args and returns exit code, stdout,
// and stderr.
func gapvet(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// fixtureArgs targets the deliberately broken fixture tree.
func fixtureArgs(t *testing.T, extra ...string) []string {
	t.Helper()
	root, err := analysis.FindModuleRoot("")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	return append(append([]string{"-root", root}, extra...), "cmd/gapvet/testdata/src/...")
}

// TestGolden locks the full CLI output on the fixture tree: every rule —
// including the four compiler-assisted -perf rules — firing at its expected
// site, the suppressed finding absent, findings sorted, exit code 1.
func TestGolden(t *testing.T) {
	code, stdout, stderr := gapvet(t, fixtureArgs(t, "-perf")...)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	goldenPath := filepath.Join("testdata", "golden.txt")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if stdout != string(want) {
		t.Errorf("output does not match %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, stdout, want)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing findings summary: %q", stderr)
	}
	if strings.Contains(stdout, "JustifiedSum") || strings.Contains(stdout, "galois/bad.go:31") {
		t.Errorf("suppressed finding leaked into output:\n%s", stdout)
	}
}

// TestJSONRoundTrip checks that -json emits the same findings as the text
// form, field for field: decoding the array and re-rendering each entry as
// "file:line: [rule] message" must reproduce the golden output exactly.
func TestJSONRoundTrip(t *testing.T) {
	code, stdout, stderr := gapvet(t, fixtureArgs(t, "-perf", "-json")...)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("decoding -json output: %v\noutput: %s", err, stdout)
	}
	var rendered strings.Builder
	for _, f := range findings {
		if f.File == "" || f.Line <= 0 || f.Col <= 0 || f.Rule == "" || f.Message == "" {
			t.Errorf("finding has empty field: %+v", f)
		}
		fmt.Fprintf(&rendered, "%s:%d: [%s] %s\n", f.File, f.Line, f.Rule, f.Message)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if rendered.String() != string(want) {
		t.Errorf("re-rendered JSON findings do not match golden.txt:\n--- got ---\n%s--- want ---\n%s", rendered.String(), want)
	}
}

// TestJSONClean emits an empty array, not nothing, when there are no
// findings.
func TestJSONClean(t *testing.T) {
	root, err := analysis.FindModuleRoot("")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	code, stdout, stderr := gapvet(t, "-root", root, "-json", "internal/verify")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want []", stdout)
	}
}

// TestListFlag prints the rule catalogue.
func TestListFlag(t *testing.T) {
	code, stdout, _ := gapvet(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, a := range analysis.Analyzers() {
		if !strings.Contains(stdout, a.Name) || !strings.Contains(stdout, a.Doc) {
			t.Errorf("-list output missing %s", a.Name)
		}
	}
}

// TestUnknownFlag exits 2 via flag parsing.
func TestUnknownFlag(t *testing.T) {
	if code, _, _ := gapvet(t, "-no-such-flag"); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestCleanPackageExitsZero runs gapvet over a package with no findings.
func TestCleanPackageExitsZero(t *testing.T) {
	root, err := analysis.FindModuleRoot("")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	code, stdout, stderr := gapvet(t, "-root", root, "internal/verify")
	if code != 0 {
		t.Errorf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("unexpected findings: %s", stdout)
	}
}

// TestPerfHarvestBuildErrorIsFatal: a -perf run whose compiler harvest could
// not build a package must not report "clean" over the facts it never got.
func TestPerfHarvestBuildErrorIsFatal(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module broken\n\ngo 1.21\n",
		"a.go":   "package broken\n\nvar x int = \"not an int\"\n",
	} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, stdout, stderr := gapvet(t, "-root", root, "-perf", "./...")
	if code != 2 || !strings.Contains(stderr, "build error line(s)") || !strings.Contains(stderr, "a.go:3") {
		t.Errorf("exit = %d, want 2 naming the build error\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}
