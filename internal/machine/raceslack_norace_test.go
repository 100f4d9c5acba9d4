//go:build !race

package machine

// raceSlack is zero without the race detector:
// TestJSONLSinkEventAllocatesNothing holds normal builds to no
// allocation at all.
const raceSlack = 0
