//go:build race

package serve

// Under the race detector sync.Pool drops a share of what is put back at
// random, so allocation counts are neither the production ones nor
// repeatable.
func init() { raceBuild = true }
