//go:build race

package mem

// raceSlack is what a race build adds to TestResetBlanksAndReuses: when it
// instruments, the compiler does not extend a slice in place for
// append(s, make([]T, n)...) but allocates the temporary, once per index
// resize — Reset's, and Sbrk's three doublings from 2 pages to 16.
const raceSlack = 4
