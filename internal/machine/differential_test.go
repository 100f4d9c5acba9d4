package machine

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// shadowTx is the test's own copy of what the per-processor line-set
// maps used to hold, kept beside the machine and never shown to it.
type shadowTx struct {
	live, killed  bool
	age           uint64
	bounded       bool
	reads, writes map[uint64]bool

	reason  AbortReason // the pending abort, when killed
	addr    uint64
	hasAddr bool
}

// oracleVictims is the scan resolveConflicts used to do, kept as the
// reference the directory's nomination is judged against: every other
// processor with a live, un-killed transaction whose write set — or,
// against a write, read set — holds the line, in ascending processor
// order.
func oracleVictims(txs []shadowTx, self int, line uint64, write bool) []int {
	var out []int
	for q := range txs {
		t := &txs[q]
		if q == self || !t.live || t.killed {
			continue
		}
		if t.writes[line] || (write && t.reads[line]) {
			out = append(out, q)
		}
	}
	return out
}

// diffCell drives one machine through a seeded schedule of serialized
// operations — slot k belongs to one processor, starts at cycle
// (k+1)*diffSlot and finishes well inside it — and predicts, from the
// shadow sets and oracleVictims alone, every conflict, nack and hw-abort
// event the machine must emit.
type diffCell struct {
	t    *testing.T
	m    *Machine
	rng  *sim.Rand
	got  *eventLog
	want []TraceEvent
	txs  []shadowTx

	verified        int // events already compared
	holderNotSharer int // victims nominated without a cached copy
	failed          bool
}

const (
	diffSlot  = 1000 // cycles per slot: more than any one operation costs
	diffBase  = 64   // first line of the contended region
	diffLines = 24   // three lines per set of the 8-set direct-mapped L1
	diffSets  = 8
)

func (c *diffCell) failf(format string, args ...any) {
	c.t.Helper()
	if !c.failed {
		c.t.Errorf(format, args...)
	}
	c.failed = true
}

// kill mirrors killHWFrom on the shadow: one conflict event, the sets
// flash-cleared, the reason held for delivery.
func (c *diffCell) kill(aggressor, victim int, reason AbortReason, addr uint64, hasAddr bool) {
	t := &c.txs[victim]
	if !t.live || t.killed {
		return
	}
	e := TraceEvent{Kind: TraceConflict, Proc: victim, Peer: aggressor, Reason: reason, Addr: addr}
	if hasAddr {
		e.Flags = FlagAddr
	}
	c.want = append(c.want, e)
	t.killed, t.reason, t.addr, t.hasAddr = true, reason, addr, hasAddr
	clear(t.reads)
	clear(t.writes)
}

// deliver mirrors consumeAbort: the victim's own hw-abort event.
func (c *diffCell) deliver(id int) {
	t := &c.txs[id]
	e := TraceEvent{Kind: TraceHWAbort, Proc: id, Reason: t.reason, Addr: t.addr, Age: t.age, Flags: FlagAge}
	if t.hasAddr {
		e.Flags |= FlagAddr
	}
	c.want = append(c.want, e)
	t.live, t.killed = false, false
}

// interrupted predicts the timer hook for a clock that moved from
// before to after: it fires once per quantum boundary crossed, and kills
// the processor's own transaction.
func (c *diffCell) interrupted(id int, before, after uint64) {
	if q := c.m.Quantum; q > 0 && after/q > before/q {
		c.kill(id, id, AbortInterrupt, 0, false)
	}
}

// victims is oracleVictims plus the bookkeeping that shows the schedule
// reached the case sharers alone would get wrong.
func (c *diffCell) victims(self int, line uint64, write bool) []int {
	vs := oracleVictims(c.txs, self, line, write)
	for _, v := range vs {
		if !c.m.dir.HeldBy(line, v) {
			c.holderNotSharer++
		}
	}
	return vs
}

// evicted names the line a miss on line would push out of p's
// direct-mapped L1.
func evicted(p *Proc, line uint64) (uint64, bool) {
	if p.l1.Contains(line) {
		return 0, false
	}
	for _, l := range p.l1.Lines() {
		if l%diffSets == line%diffSets {
			return l, true
		}
	}
	return 0, false
}

func (c *diffCell) expectOutcome(what string, got Outcome, want OutcomeKind) {
	c.t.Helper()
	if got.Kind != want {
		c.failf("%s: outcome %v, oracle predicts %v", what, got.Kind, want)
	}
}

// txAccess predicts and performs one transactional load or store.
func (c *diffCell) txAccess(p *Proc, addr uint64, write bool) {
	id, line := p.ID(), mem.LineOf(addr)
	t := &c.txs[id]
	what := fmt.Sprintf("p%d tx access line %d write=%v", id, line, write)
	do := func() Outcome {
		if write {
			return p.TxWrite(addr, uint64(id))
		}
		_, out := p.TxRead(addr)
		return out
	}
	before := p.Now()
	switch {
	case t.killed:
		c.deliver(id)
		c.expectOutcome(what, do(), HWAborted)
		return
	case p.UFOEnabled() && c.m.Mem.Faults(addr, write):
		out := do()
		c.interrupted(id, before, p.Now())
		c.expectOutcome(what, out, UFOFault)
		return
	}
	vs := c.victims(id, line, write)
	if c.m.HWPolicy == AgeOrdered {
		for _, v := range vs {
			if c.txs[v].age < t.age {
				c.want = append(c.want, TraceEvent{Kind: TraceNack, Proc: id, Addr: mem.LineAddr(line), Age: t.age, Flags: FlagAddr | FlagAge})
				c.expectOutcome(what, do(), Nacked)
				return
			}
		}
	}
	for _, v := range vs {
		c.kill(id, v, AbortConflict, mem.LineAddr(line), true)
	}
	if write {
		t.writes[line] = true
	} else {
		t.reads[line] = true
	}
	if ev, ok := evicted(p, line); ok && t.bounded && (t.reads[ev] || t.writes[ev]) {
		c.kill(id, id, AbortOverflow, mem.LineAddr(ev), true)
	}
	out := do()
	c.interrupted(id, before, p.Now())
	if t.killed {
		c.deliver(id)
		c.expectOutcome(what, out, HWAborted)
	} else {
		c.expectOutcome(what, out, OK)
	}
}

// ntAccess predicts and performs one non-transactional load or store.
func (c *diffCell) ntAccess(p *Proc, addr uint64, write bool) {
	id, line := p.ID(), mem.LineOf(addr)
	faults := p.UFOEnabled() && c.m.Mem.Faults(addr, write)
	if !faults {
		for _, v := range c.victims(id, line, write) {
			c.kill(id, v, AbortNonTConflict, mem.LineAddr(line), true)
		}
	}
	var out Outcome
	if write {
		out = p.NTWrite(addr, uint64(id))
	} else {
		_, out = p.NTRead(addr)
	}
	want := OK
	if faults {
		want = UFOFault
	}
	c.expectOutcome(fmt.Sprintf("p%d nt access line %d write=%v", id, line, write), out, want)
}

// ufoOp predicts and performs one set_ufo_bits.
func (c *diffCell) ufoOp(p *Proc, addr uint64, bits mem.UFOBits) {
	id, line := p.ID(), mem.LineOf(addr)
	old := c.m.Mem.UFO(addr)
	downgrade, fowOnly := bits&^old == 0, bits&^old == mem.UFOFaultOnWrite
	if !(c.m.LazyUFOClear && downgrade) {
		shared := c.m.OwnerStateUFO && fowOnly
		for _, v := range c.victims(id, line, true) {
			trueConflict := c.txs[v].writes[line] || bits&mem.UFOFaultOnRead != 0
			if !trueConflict && (c.m.TrueConflictUFOKills || shared) {
				continue
			}
			c.kill(id, v, AbortUFOKill, mem.LineAddr(line), true)
		}
	}
	p.SetUFO(addr, bits)
}

// step picks and runs processor p's next operation.
func (c *diffCell) step(p *Proc) {
	id := p.ID()
	t := &c.txs[id]
	addr := mem.LineAddr(diffBase+uint64(c.rng.Intn(diffLines))) + 8*uint64(c.rng.Intn(8))
	r := c.rng.Intn(10)
	switch {
	case t.live && r < 2:
		want := OK
		if t.killed {
			c.deliver(id)
			want = HWAborted
		}
		t.live = false
		clear(t.reads)
		clear(t.writes)
		c.expectOutcome(fmt.Sprintf("p%d commit", id), p.CommitHW(), want)
	case t.live:
		c.txAccess(p, addr, r < 5)
	case r < 4:
		t.live, t.age, t.bounded = true, c.m.NextAge(), r < 2
		p.BeginHW(t.age, t.bounded)
		c.txAccess(p, addr, r%2 == 0)
	case r < 6:
		c.ntAccess(p, addr, false)
	case r < 8:
		c.ntAccess(p, addr, true)
	default:
		c.ufoOp(p, addr, mem.UFOBits(c.rng.Intn(4)))
	}
}

// verify compares what the machine has emitted since the last call with
// what the oracle has predicted since then, and checks the machine's
// invariants.
func (c *diffCell) verify(when string) {
	c.t.Helper()
	got := c.got.events
	for i := c.verified; i < len(got) || i < len(c.want); i++ {
		switch {
		case i >= len(got):
			c.failf("%s: event %d: machine emitted nothing, oracle predicts %v", when, i, c.want[i])
		case i >= len(c.want):
			c.failf("%s: event %d: machine emitted %v, oracle predicts nothing", when, i, got[i])
		default:
			e := got[i]
			e.Cycle = 0
			if e == c.want[i] {
				continue
			}
			c.failf("%s: event %d: machine emitted %v, oracle predicts %v", when, i, e, c.want[i])
		}
		return
	}
	c.verified = len(got)
	if err := c.m.CheckConsistency(); err != nil {
		c.failf("%s: %v", when, err)
	}
}

// TestConflictVictimsMatchDeletedScan drives the directory-nominated
// conflict sets against the O(P) scan they replaced, over seeded random
// schedules on 2 to 256 processors (70 and 256 cross the bitmask's word
// boundaries) under every UFO-kill variant: transactional and plain
// reads and writes, set_ufo_bits, overflow self-kills in a tiny
// direct-mapped L1, timer interrupts, and unbounded transactions that
// keep lines the L1 has evicted. The conflict/nack/hw-abort sequence on
// the event spine must be the oracle's, event for event, and
// CheckConsistency must hold after every operation.
func TestConflictVictimsMatchDeletedScan(t *testing.T) {
	variants := []struct {
		name string
		set  func(*Params)
	}{
		{"age-ordered", func(*Params) {}},
		{"requester-wins+lazy-clear", func(p *Params) { p.HWPolicy, p.LazyUFOClear = RequesterWins, true }},
		{"owner-state", func(p *Params) { p.OwnerStateUFO = true }},
		{"true-conflict+lazy-clear", func(p *Params) { p.TrueConflictUFOKills, p.LazyUFOClear = true, true }},
	}
	holderNotSharer := 0
	for _, procs := range []int{2, 16, 70, 256} {
		for _, v := range variants {
			for seed := uint64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("p%d/%s/seed%d", procs, v.name, seed), func(t *testing.T) {
					params := testParams(procs)
					params.Seed = seed
					params.L1Bytes, params.L1Ways = diffSets*mem.LineBytes, 1
					params.Quantum = diffSlot * uint64(max(procs, 4)) * 12
					v.set(&params)
					holderNotSharer += runDiffCell(t, params, 400+8*procs)
				})
			}
		}
	}
	if holderNotSharer == 0 && !t.Failed() {
		t.Error("no schedule nominated a victim that held a line without caching it: the holder-is-not-sharer case went untested")
	}
}

func runDiffCell(t *testing.T, params Params, steps int) int {
	c := &diffCell{
		t:   t,
		m:   New(params),
		rng: sim.NewRand(params.Seed*977 + uint64(params.Procs)),
		got: new(eventLog),
		txs: make([]shadowTx, params.Procs),
	}
	for i := range c.txs {
		c.txs[i].reads, c.txs[i].writes = map[uint64]bool{}, map[uint64]bool{}
	}
	c.m.Observe(KindSet(TraceConflict, TraceNack, TraceHWAbort), c.got)
	slots := make([][]uint64, params.Procs) // per processor, its slots' start cycles
	for k := 0; k < steps; k++ {
		p := c.rng.Intn(params.Procs)
		slots[p] = append(slots[p], uint64(k+1)*diffSlot)
	}
	ws := make([]func(*Proc), params.Procs)
	for i := range ws {
		ws[i] = func(p *Proc) {
			p.SetUFOEnabled(p.ID()%2 == 0)
			for _, start := range slots[p.ID()] {
				// The idle jump to the slot fires the timer hook now, in
				// this token segment, before the yield.
				c.interrupted(p.ID(), p.Now(), max(p.Now(), start))
				p.ElapseUntil(start)
				if c.failed {
					return
				}
				c.step(p)
				c.verify(fmt.Sprintf("slot at cycle %d, p%d", start, p.ID()))
			}
		}
	}
	c.m.Run(ws)
	c.verify("after the run")
	return c.holderNotSharer
}
