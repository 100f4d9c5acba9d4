//go:build !race

package mem

// raceSlack is zero without the race detector: TestResetBlanksAndReuses
// holds normal builds to no allocation at all.
const raceSlack = 0
