//go:build servecheck

package serve

// Building with -tags=servecheck arms the lease-leak drain assertion and the
// snapshot epoch assertion; see check.go.
func init() { checkEnabled = true }
