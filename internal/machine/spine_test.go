package machine_test

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
	"repro/internal/tmtest"
	"repro/internal/ustm"
)

// TestEventOrderTwoProcCollider pins the machine's one event stream,
// event for event, through the three ways a transaction gets killed: an
// older hardware transaction aborts a younger one over line 0x1000
// (§3.1), a set_ufo_bits kills a hardware reader of line 0x2000 (§4.3),
// and an older USTM transaction kills the younger owner of line 0x3000.
// One observer subscribed to every kind sees (cycle, proc, kind, reason,
// peer, addr) in exactly this order under the run-ahead scheduler and
// under the reference scheduler: each kill is one conflict event on the
// victim, stamped with the killer's clock, followed — when the victim
// next runs — by the victim's own abort. The USTM transactions' stores
// reach memory in place (mem-write), the victim's rollback of line
// 0x3000 to 0 included; the hardware one reads only, so it publishes
// nothing.
func TestEventOrderTwoProcCollider(t *testing.T) {
	const hwLine, ufoLine, swLine = 0x1000, 0x2000, 0x3000
	want := strings.TrimSpace(`
0 p1 hw-begin age=2
400 p0 tx-begin
400 p0 tx-attempt path=htm
400 p0 hw-begin age=1
400 p1 conflict reason=conflict peer=0 addr=0x1000
421 p0 hw-commit age=1
421 p0 tx-commit path=htm
1300 p1 hw-abort reason=conflict addr=0x1000 age=2
2000 p0 hw-begin age=3
2400 p0 conflict reason=ufo-kill peer=1 addr=0x2000
2400 p1 ufo-set addr=0x2000
2466 p1 ufo-set addr=0x2000
2800 p0 hw-abort reason=ufo-kill addr=0x2000 age=3
4000 p0 tx-begin
4000 p0 tx-attempt path=sw
4000 p0 sw-begin age=4
4100 p1 tx-begin
4100 p1 tx-attempt path=sw
4100 p1 sw-begin age=5
4442 p1 mem-write addr=0x4b80 arg=1
4601 p1 conflict reason=conflict peer=0 addr=0x3000
4751 p1 mem-write addr=0x3000 arg=2
5352 p1 mem-write addr=0x3000 arg=0
5416 p1 mem-write addr=0x4b80 arg=1
5422 p1 sw-abort reason=conflict age=5
5442 p1 tx-abort reason=conflict path=sw
5573 p0 mem-write addr=0x4b80 arg=1
5702 p0 mem-write addr=0x3000 arg=1
5703 p0 mem-write addr=0x4b80 arg=1
5729 p0 sw-commit age=4
5729 p0 sw-committed
5729 p0 tx-commit path=sw
5762 p1 tx-attempt path=sw
5762 p1 sw-begin age=5
5924 p1 mem-write addr=0x4b80 arg=1
6053 p1 mem-write addr=0x3000 arg=2
6666 p1 mem-write addr=0x4b80 arg=1
6692 p1 sw-commit age=5
6692 p1 sw-committed
6692 p1 tx-commit path=sw
`)
	for _, reference := range []bool{false, true} {
		params := machine.DefaultParams(2)
		params.MemBytes = 1 << 20
		params.Quantum = 0
		params.ReferenceScheduler = reference
		m := machine.New(params)
		log := new(tmtest.EventLog)
		m.Observe(machine.AllKinds, log)
		cfg := ustm.DefaultConfig()
		cfg.OTableRows = 1 << 8
		cfg.StrongAtomicity = false
		stm := ustm.New(m, cfg)
		ex0, ex1 := stm.Exec(m.Proc(0)), stm.Exec(m.Proc(1))
		m.Run([]func(*machine.Proc){
			func(p *machine.Proc) {
				// HW vs HW: the older requester.
				age := m.NextAge()
				p.Elapse(400)
				p.TxLifeBegin()
				p.TxLifeAttempt(machine.PathHTM)
				p.BeginHW(age, true)
				p.TxRead(hwLine)
				p.CommitHW()
				p.TxLifeCommit(machine.PathHTM)
				// UFO kill: the hardware reader.
				p.ElapseUntil(2000)
				p.BeginHW(m.NextAge(), true)
				p.TxRead(ufoLine)
				p.ElapseUntil(2800)
				p.CommitHW()
				// SW kill: the older software transaction.
				p.ElapseUntil(4000)
				ex0.Atomic(func(tx tm.Tx) {
					p.Elapse(500)
					tx.Store(swLine, 1)
				})
			},
			func(p *machine.Proc) {
				// HW vs HW: the younger owner.
				p.BeginHW(m.NextAge(), true)
				p.TxWrite(hwLine, 9)
				p.ElapseUntil(1300)
				p.TxRead(hwLine)
				// UFO kill: install and clear protection.
				p.ElapseUntil(2400)
				p.SetUFOEnabled(false)
				p.SetUFO(ufoLine, mem.UFOFaultOnWrite)
				p.SetUFO(ufoLine, 0)
				p.SetUFOEnabled(true)
				// SW kill: the younger owner, killed inside its body.
				p.ElapseUntil(4100)
				ex1.Atomic(func(tx tm.Tx) {
					tx.Store(swLine, 2)
					p.Elapse(600)
					tx.Load(swLine)
				})
			},
		})
		var got []string
		for _, e := range log.Events {
			// TraceEvent.String minus its column padding.
			got = append(got, strings.Join(strings.Fields(e.String()), " "))
		}
		if s := strings.Join(got, "\n"); s != want {
			t.Errorf("reference=%v: event stream\n%s\nwant\n%s", reference, s, want)
		}
	}
}
