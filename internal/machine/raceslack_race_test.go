//go:build race

package machine

// raceSlack is what a race build may add to the allocations
// TestJSONLSinkEventAllocatesNothing counts per round of events.
const raceSlack = 1
