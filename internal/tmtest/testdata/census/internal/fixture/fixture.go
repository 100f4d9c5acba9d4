// Package fixture is a tree the census test decides by hand: each
// declaration below says whether the census must report it.
package fixture

// runner is called through, so the methods of its implementations are.
type runner interface{ run() int }

type counter struct {
	n    int // read by run: live
	last int // only ever assigned: reported
}

// Options has no json tags, so its exported fields live by their reads
// too.
type Options struct {
	Size  int    // read by Run: live
	Label string // only set in a composite literal: reported
}

// run is reached only through runner: live.
func (c *counter) run() int {
	c.last = c.n
	return c.n
}

// Run is exported and main calls it: live.
func Run() int {
	o := Options{Size: 1, Label: "one"}
	var r runner = &counter{n: o.Size}
	return r.run()
}

// unused has no caller: reported.
func unused() int { return 0 }
