// Package core is a helper fixture the sibling fixture packages call into:
// it allocates and reaches the OS, so the interprocedural rules can report
// kernel-side call sites that cross a package boundary. It has no findings
// of its own — core is shared substrate, not a timed kernel package, and its
// errors are returned, not dropped.
package core

import "os"

// Scratch returns a freshly allocated buffer.
func Scratch(n int) []int64 {
	return make([]int64, n)
}

// Spill creates a debug spill file.
func Spill(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	return f.Close()
}
