//go:build !race

package cache

// raceSlack is zero without the race detector:
// TestResetRestoresConstructedState holds normal builds to no allocation
// at all.
const raceSlack = 0
