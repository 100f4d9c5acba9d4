//go:build race

package harness

// raceSlack is what the race detector's own bookkeeping adds to a
// cell's measured allocation (2–15 KiB observed) on top of the bound
// TestSecondCellReusesArena holds normal builds to.
const raceSlack = 32 << 10
