//go:build servecheck

package serve

// Building with -tags=servecheck arms the lease-leak drain assertion, the
// snapshot epoch assertion and the sampled reach-answer assertion; see
// check.go.
func init() { checkEnabled = true }
