package core

import (
	"path/filepath"
	"sync"
	"testing"
)

// TestMountClosesMountedInputsOnError: when one input of a -graphfile list
// fails to load, every input mount had loaded by then is closed before the
// error returns. The inputs before the bad path are always among them: the
// two mount goroutines take inputs in order.
func TestMountClosesMountedInputsOnError(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, spec := range DefaultSuite(4)[:4] {
		in, err := LoadCachedInput(spec, dir)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, in.File)
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
	}
	bad := filepath.Join(dir, "missing.sg")
	paths = []string{paths[0], paths[1], bad, paths[2], paths[3]}
	var mu sync.Mutex
	var loaded []*Input
	inputs, err := mount(len(paths), func(i int) (*Input, error) {
		in, err := LoadInputFile(paths[i])
		if err == nil {
			mu.Lock()
			loaded = append(loaded, in)
			mu.Unlock()
		}
		return in, err
	})
	if inputs != nil || err == nil {
		t.Fatalf("mount with %s missing = %v, %v; want an error", bad, inputs, err)
	}
	if len(loaded) < 2 {
		t.Fatalf("%d inputs loaded, want at least the two before %s", len(loaded), bad)
	}
	for _, in := range loaded {
		if in.Graph != nil {
			t.Errorf("%s from %s is still open after the failed mount", in.Spec.Name, in.File)
		}
	}
}
