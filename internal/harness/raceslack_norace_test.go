//go:build !race

package harness

// raceSlack is zero without the race detector: TestSecondCellReusesArena
// holds normal builds to its bound exactly.
const raceSlack = 0
