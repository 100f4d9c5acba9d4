//go:build race

package cache

// raceSlack is what a race build adds to
// TestResetRestoresConstructedState: when it instruments, the compiler
// does not extend a slice in place for append(s, make([]T, n)...) but
// allocates the temporary, once for each of the five times Line grows
// the page index.
const raceSlack = 5
