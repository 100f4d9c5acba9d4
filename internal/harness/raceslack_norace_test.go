//go:build !race

package harness

// raceSlack and raceMallocSlack are zero without the race detector:
// TestSecondCellReusesArena holds normal builds to its bounds exactly.
const raceSlack, raceMallocSlack = 0, 0
