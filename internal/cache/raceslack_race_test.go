//go:build race

package cache

// raceSlack is what a race build adds to
// TestResetRestoresConstructedState: when it instruments, the compiler
// does not extend a slice in place for append(s, make([]T, n)...) but
// allocates the temporary, once, when the memory's Reset resizes its
// page index.
const raceSlack = 1
