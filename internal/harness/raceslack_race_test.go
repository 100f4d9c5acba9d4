//go:build race

package harness

// raceSlack and raceMallocSlack are what the race detector's own
// bookkeeping adds to a cell's measured allocation (2–15 KiB observed)
// and to its allocation count (5 observed) on top of the bounds
// TestSecondCellReusesArena holds normal builds to.
const raceSlack, raceMallocSlack = 32 << 10, 8
