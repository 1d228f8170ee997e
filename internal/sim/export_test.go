package sim

import "testing"

// PoisonPages turns on, for the rest of t, the pool's hook that
// overwrites every page handed back with records due at -1 (see
// poisonPages). Not for parallel tests: the hook is one package
// variable.
func PoisonPages(t testing.TB) {
	poisonPages = true
	t.Cleanup(func() { poisonPages = false })
}
