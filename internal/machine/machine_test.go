package machine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testParams returns a small, fast configuration.
func testParams(procs int) Params {
	p := DefaultParams(procs)
	p.MemBytes = 1 << 20
	p.Quantum = 0 // most tests don't want timer interrupts
	return p
}

// run1 runs a single-processor workload.
func run1(t *testing.T, params Params, body func(*Proc)) *Machine {
	t.Helper()
	m := New(params)
	m.Run([]func(*Proc){body})
	return m
}

// victimTx runs a one-access hardware transaction followed by a long
// compute window, returning the first non-OK outcome. Asynchronous kills
// can surface at any transactional operation, so callers cannot assume
// the abort arrives exactly at commit.
func victimTx(p *Proc, write bool) Outcome {
	p.BeginHW(p.Machine().NextAge(), true)
	var out Outcome
	if write {
		out = p.TxWrite(0, 9)
	} else {
		_, out = p.TxRead(0)
	}
	p.Elapse(1000)
	if p.HW() != nil {
		c := p.CommitHW()
		if out.Kind == OK {
			out = c
		}
	}
	return out
}

func TestNTReadWriteRoundTrip(t *testing.T) {
	run1(t, testParams(1), func(p *Proc) {
		if out := p.NTWrite(64, 7); out.Kind != OK {
			t.Fatalf("write outcome %v", out)
		}
		v, out := p.NTRead(64)
		if out.Kind != OK || v != 7 {
			t.Fatalf("read = %d/%v, want 7/ok", v, out)
		}
	})
}

func TestTimingColdThenHot(t *testing.T) {
	params := testParams(1)
	m := New(params)
	var cold, hot uint64
	m.Run([]func(*Proc){func(p *Proc) {
		start := p.Now()
		p.NTRead(0)
		cold = p.Now() - start
		start = p.Now()
		p.NTRead(8) // same line: must be an L1 hit
		hot = p.Now() - start
	}})
	if cold != L1HitCycles+MemCycles {
		t.Fatalf("cold access cost %d, want %d", cold, L1HitCycles+MemCycles)
	}
	if hot != L1HitCycles {
		t.Fatalf("hot access cost %d, want %d", hot, L1HitCycles)
	}
}

func TestHWTxCommitPublishesWrites(t *testing.T) {
	m := run1(t, testParams(1), func(p *Proc) {
		p.Machine().Mem.Write64(128, 1)
		p.BeginHW(p.Machine().NextAge(), true)
		if out := p.TxWrite(128, 42); out.Kind != OK {
			t.Fatalf("TxWrite: %v", out)
		}
		// Speculative value visible to the transaction itself...
		if v, _ := p.TxRead(128); v != 42 {
			t.Fatalf("own spec read = %d", v)
		}
		// ...but not committed yet.
		if p.Machine().Mem.Read64(128) != 1 {
			t.Fatal("speculative store leaked to memory")
		}
		if out := p.CommitHW(); out.Kind != OK {
			t.Fatalf("commit: %v", out)
		}
	})
	if m.Mem.Read64(128) != 42 {
		t.Fatal("commit did not publish the store")
	}
	// The commit's footprint is recorded; counting it as a transaction's
	// commit is the lifecycle tally's (TxLifeCommit), not CommitHW's.
	if n := m.Count.HWFootprint.Count(); n != 1 || m.Count.HWCommits != 0 {
		t.Fatalf("footprints = %d, HWCommits = %d: want 1 and 0", n, m.Count.HWCommits)
	}
}

func TestHWTxAbortDiscardsWrites(t *testing.T) {
	m := run1(t, testParams(1), func(p *Proc) {
		p.Machine().Mem.Write64(128, 1)
		p.BeginHW(p.Machine().NextAge(), true)
		p.TxWrite(128, 42)
		p.AbortHW(AbortExplicit)
	})
	if m.Mem.Read64(128) != 1 {
		t.Fatal("aborted store reached memory")
	}
	if m.Count.HWAbortsByReason[AbortExplicit] != 1 {
		t.Fatal("explicit abort not counted")
	}
}

func TestOverflowAbort(t *testing.T) {
	params := testParams(1)
	params.L1Bytes = 4 * 64 // 4 lines
	params.L1Ways = 1       // direct-mapped: lines 0 and 4 collide
	m := run1(t, testParams(1), func(p *Proc) {})
	_ = m
	m2 := New(params)
	var got Outcome
	m2.Run([]func(*Proc){func(p *Proc) {
		p.BeginHW(p.Machine().NextAge(), true)
		if out := p.TxWrite(0, 1); out.Kind != OK {
			t.Fatalf("first write: %v", out)
		}
		got = p.TxWrite(4*64, 2) // maps to the same set, evicts line 0
	}})
	if got.Kind != HWAborted || got.Reason != AbortOverflow {
		t.Fatalf("outcome = %+v, want overflow abort", got)
	}
	if m2.Count.HWAbortsByReason[AbortOverflow] != 1 {
		t.Fatal("overflow not counted")
	}
}

func TestUnboundedTxSurvivesEviction(t *testing.T) {
	params := testParams(1)
	params.L1Bytes = 4 * 64
	params.L1Ways = 1
	m := New(params)
	m.Run([]func(*Proc){func(p *Proc) {
		p.BeginHW(p.Machine().NextAge(), false) // unbounded
		p.TxWrite(0, 1)
		if out := p.TxWrite(4*64, 2); out.Kind != OK {
			t.Fatalf("eviction aborted unbounded tx: %v", out)
		}
		if out := p.CommitHW(); out.Kind != OK {
			t.Fatalf("commit: %v", out)
		}
	}})
	if m.Mem.Read64(0) != 1 || m.Mem.Read64(4*64) != 2 {
		t.Fatal("unbounded commit lost writes")
	}
}

func TestConflictYoungerRequesterNacked(t *testing.T) {
	m := New(testParams(2))
	var out Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.BeginHW(p.Machine().NextAge(), true) // older (age 1)
			p.TxWrite(0, 1)
			p.Elapse(1000) // stay in flight while proc 1 runs
			p.CommitHW()
		},
		func(p *Proc) {
			p.Elapse(200)                          // let proc 0 write first
			p.BeginHW(p.Machine().NextAge(), true) // younger (age 2)
			_, out = p.TxRead(0)
			if p.HW() != nil {
				p.AbortHW(AbortExplicit)
			}
		},
	})
	if out.Kind != Nacked {
		t.Fatalf("younger requester outcome = %+v, want NACK", out)
	}
	if m.Count.Nacks != 1 {
		t.Fatalf("Nacks = %d", m.Count.Nacks)
	}
}

func TestConflictOlderRequesterAbortsOwner(t *testing.T) {
	m := New(testParams(2))
	var readerOut, victimOut Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			age := p.Machine().NextAge() // age 1: older
			p.Elapse(300)                // but begins execution later
			p.BeginHW(age, true)
			_, readerOut = p.TxRead(0)
			p.CommitHW()
		},
		func(p *Proc) {
			p.BeginHW(p.Machine().NextAge(), true) // age 2: younger
			victimOut = p.TxWrite(0, 9)
			p.Elapse(1000)
			if p.HW() != nil {
				out := p.CommitHW()
				if victimOut.Kind == OK {
					victimOut = out
				}
			}
		},
	})
	if readerOut.Kind != OK {
		t.Fatalf("older requester outcome = %+v, want OK", readerOut)
	}
	if victimOut.Kind != HWAborted || victimOut.Reason != AbortConflict {
		t.Fatalf("victim outcome = %+v, want conflict abort", victimOut)
	}
}

func TestRequesterWinsPolicy(t *testing.T) {
	params := testParams(2)
	params.HWPolicy = RequesterWins
	m := New(params)
	var out Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.BeginHW(p.Machine().NextAge(), true) // older owner
			p.TxWrite(0, 1)
			p.Elapse(1000)
			if p.HW() != nil {
				p.CommitHW()
			}
		},
		func(p *Proc) {
			p.Elapse(200)
			p.BeginHW(p.Machine().NextAge(), true) // younger requester
			_, out = p.TxRead(0)                   // requester-wins: no NACK
			p.CommitHW()
		},
	})
	if out.Kind != OK {
		t.Fatalf("requester-wins outcome = %+v, want OK", out)
	}
	if m.Count.HWAbortsByReason[AbortConflict] != 1 {
		t.Fatal("owner was not aborted")
	}
}

func TestNonTAccessAbortsHWTx(t *testing.T) {
	m := New(testParams(2))
	var victim Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			victim = victimTx(p, false)
		},
		func(p *Proc) {
			p.Elapse(100)
			p.NTWrite(0, 5) // non-transactional conflicting write
		},
	})
	if victim.Kind != HWAborted || victim.Reason != AbortNonTConflict {
		t.Fatalf("victim = %+v, want nonT-conflict abort", victim)
	}
	if m.Mem.Read64(0) != 5 {
		t.Fatal("nonT write lost")
	}
}

func TestSetUFOKillsHWSharers(t *testing.T) {
	m := New(testParams(2))
	var victim Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			victim = victimTx(p, false)
		},
		func(p *Proc) {
			p.Elapse(100)
			p.SetUFOEnabled(false)
			p.SetUFO(0, mem.UFOFaultOnWrite) // STM read barrier on same line
		},
	})
	if victim.Kind != HWAborted || victim.Reason != AbortUFOKill {
		t.Fatalf("victim = %+v, want ufo-kill", victim)
	}
	if m.Count.UFOKillsFalse != 1 {
		t.Fatalf("UFOKillsFalse = %d, want 1 (reader killed by fault-on-write set)", m.Count.UFOKillsFalse)
	}
}

func TestTrueConflictLimitStudySparesFalseKills(t *testing.T) {
	params := testParams(2)
	params.TrueConflictUFOKills = true
	m := New(params)
	var victim Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			victim = victimTx(p, false)
		},
		func(p *Proc) {
			p.Elapse(100)
			p.SetUFOEnabled(false)
			p.SetUFO(0, mem.UFOFaultOnWrite) // reader vs fault-on-write: false conflict
		},
	})
	if victim.Kind != OK {
		t.Fatalf("victim = %+v, want survival under limit study", victim)
	}
	if m.Count.UFOKillsFalse != 1 {
		t.Fatal("false kill not classified")
	}
}

func TestUFOFaultBlocksAccess(t *testing.T) {
	m := New(testParams(1))
	faults := observe(m, KindSet(TraceUFOFault))
	m.Run([]func(*Proc){func(p *Proc) {
		p.SetUFOEnabled(false)
		p.SetUFO(0, mem.UFOFaultAll)
		p.NTWrite(0, 3) // UFO disabled: proceeds
		p.SetUFOEnabled(true)
		v, out := p.NTRead(0)
		if out.Kind != UFOFault {
			t.Fatalf("read outcome = %+v, want UFO fault", out)
		}
		if ev := faults.events; len(ev) != 1 || !ev[0].HasAddr() || ev[0].Addr != 0 {
			t.Fatalf("ufo-fault events = %+v, want one at address 0", ev)
		}
		if v != 0 {
			t.Fatal("faulting read returned data")
		}
		if out := p.NTWrite(0, 9); out.Kind != UFOFault {
			t.Fatalf("write outcome = %+v, want UFO fault", out)
		}
	}})
	if m.Mem.Read64(0) != 3 {
		t.Fatal("faulting write modified memory")
	}
	if m.Count.UFOFaults != 2 {
		t.Fatalf("UFOFaults = %d, want 2", m.Count.UFOFaults)
	}
}

func TestHWTxUFOFaultOutcome(t *testing.T) {
	m := New(testParams(1))
	m.Run([]func(*Proc){func(p *Proc) {
		p.SetUFOEnabled(false)
		p.SetUFO(64, mem.UFOFaultOnWrite)
		p.SetUFOEnabled(true)
		p.BeginHW(p.Machine().NextAge(), true)
		// Reads of fault-on-write lines are allowed (shared read with STM).
		if _, out := p.TxRead(64); out.Kind != OK {
			t.Fatalf("read of FoW line: %v", out)
		}
		if out := p.TxWrite(64, 1); out.Kind != UFOFault {
			t.Fatalf("write of FoW line: %v, want UFO fault", out)
		}
		p.AbortHW(AbortUFOFault)
	}})
	if m.Count.HWAbortsByReason[AbortUFOFault] != 1 {
		t.Fatal("ufo-fault abort not counted")
	}
}

func TestTimerInterruptAbortsTx(t *testing.T) {
	params := testParams(1)
	params.Quantum = 500
	m := New(params)
	var out Outcome
	m.Run([]func(*Proc){func(p *Proc) {
		p.BeginHW(p.Machine().NextAge(), true)
		p.TxWrite(0, 1)
		p.Elapse(600) // crosses the quantum
		out = p.CommitHW()
	}})
	if out.Kind != HWAborted || out.Reason != AbortInterrupt {
		t.Fatalf("outcome = %+v, want interrupt abort", out)
	}
}

func TestNextAgeMonotonic(t *testing.T) {
	m := New(testParams(1))
	a, b, c := m.NextAge(), m.NextAge(), m.NextAge()
	if !(a < b && b < c) {
		t.Fatalf("ages not monotonic: %d %d %d", a, b, c)
	}
}

func TestSTMAgeClassification(t *testing.T) {
	m := New(testParams(2))
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.Elapse(100)
			victimTx(p, false) // younger HW tx (age 2)
		},
		func(p *Proc) {
			age := p.Machine().NextAge() // age 1: STM tx is older
			p.SetSTM(true, age)
			p.SetUFOEnabled(false)
			p.Elapse(300)
			p.SetUFO(0, mem.UFOFaultAll) // STM write barrier kills the HW reader
			p.SetSTM(false, 0)
		},
	})
	if m.Count.ConflictSTMOlder != 1 {
		t.Fatalf("ConflictSTMOlder = %d, want 1", m.Count.ConflictSTMOlder)
	}
	if m.Count.UFOKillsTrue != 1 {
		t.Fatalf("UFOKillsTrue = %d, want 1", m.Count.UFOKillsTrue)
	}
}

func TestNonTAccessInsideHWTxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := New(testParams(1))
	m.Run([]func(*Proc){func(p *Proc) {
		p.BeginHW(p.Machine().NextAge(), true)
		p.NTRead(0)
	}})
}

func TestAbortReasonStrings(t *testing.T) {
	if AbortOverflow.String() != "overflow" || AbortNone.String() != "none" {
		t.Fatal("abort reason names wrong")
	}
	if AbortReason(200).String() == "" {
		t.Fatal("out-of-range reason must still format")
	}
	if OK.String() != "ok" || Nacked.String() != "nacked" {
		t.Fatal("outcome kind names wrong")
	}
}

func TestTxFootprint(t *testing.T) {
	m := New(testParams(1))
	m.Run([]func(*Proc){func(p *Proc) {
		p.BeginHW(p.Machine().NextAge(), true)
		p.TxRead(0)
		p.TxRead(64)
		p.TxWrite(64, 1) // same line as a read: counted once
		p.TxWrite(128, 2)
		if got := p.HW().Footprint(); got != 3 {
			t.Fatalf("footprint = %d, want 3", got)
		}
		p.CommitHW()
	}})
	_ = m
}

func TestCacheTransferCostBetweenProcs(t *testing.T) {
	params := testParams(2)
	m := New(params)
	var cost uint64
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.NTWrite(0, 1)
			p.Elapse(10)
		},
		func(p *Proc) {
			p.Elapse(1000) // wait until proc 0 holds the line
			start := p.Now()
			p.NTRead(0)
			cost = p.Now() - start
		},
	})
	want := L1HitCycles + TransferCycles
	if cost != want {
		t.Fatalf("cache-to-cache read cost %d, want %d", cost, want)
	}
}

func TestOwnerStateUFOSparesReaders(t *testing.T) {
	params := testParams(2)
	params.OwnerStateUFO = true
	m := New(params)
	var victim Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			victim = victimTx(p, false) // reader of line 0
		},
		func(p *Proc) {
			p.Elapse(100)
			p.SetUFOEnabled(false)
			p.SetUFO(0, mem.UFOFaultOnWrite) // STM read barrier: FoW only
		},
	})
	if victim.Kind != OK {
		t.Fatalf("victim = %+v: owner-state install must spare readers", victim)
	}
	if m.Count.UFOKillsFalse != 1 {
		t.Fatal("false conflict not classified")
	}
}

func TestOwnerStateUFOStillKillsWriters(t *testing.T) {
	params := testParams(2)
	params.OwnerStateUFO = true
	m := New(params)
	var victim Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			victim = victimTx(p, true) // writer of line 0
		},
		func(p *Proc) {
			p.Elapse(100)
			p.SetUFOEnabled(false)
			p.SetUFO(0, mem.UFOFaultOnWrite)
		},
	})
	if victim.Kind != HWAborted || victim.Reason != AbortUFOKill {
		t.Fatalf("victim = %+v: a writer is a true conflict even under owner-state install", victim)
	}
}

func TestLazyUFOClearSparesReaders(t *testing.T) {
	params := testParams(2)
	params.LazyUFOClear = true
	m := New(params)
	var victim Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.Elapse(500) // start after the bits exist
			victim = victimTx(p, false)
		},
		func(p *Proc) {
			p.SetUFOEnabled(false)
			p.SetUFO(0, mem.UFOFaultOnWrite)
			p.Elapse(1000)
			p.SetUFO(0, mem.UFONone) // downgrade: lazy, kills nobody
		},
	})
	if victim.Kind != OK {
		t.Fatalf("victim = %+v: lazy clear must not kill readers", victim)
	}
	if m.Mem.UFO(0) != mem.UFONone {
		t.Fatal("clear not applied")
	}
}

func TestEagerClearKillsReaders(t *testing.T) {
	// The default (eager) clear is the false-conflict source the paper's
	// lazy-clearing mitigation addresses.
	m := New(testParams(2))
	var victim Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.Elapse(500)
			victim = victimTx(p, false)
		},
		func(p *Proc) {
			p.SetUFOEnabled(false)
			p.SetUFO(0, mem.UFOFaultOnWrite)
			p.Elapse(1000)
			p.SetUFO(0, mem.UFONone)
		},
	})
	if victim.Kind != HWAborted || victim.Reason != AbortUFOKill {
		t.Fatalf("victim = %+v: eager clear should kill the reader", victim)
	}
}

func TestFootprintHistogram(t *testing.T) {
	m := New(testParams(1))
	m.Run([]func(*Proc){func(p *Proc) {
		p.BeginHW(m.NextAge(), true)
		p.TxWrite(0, 1)
		p.TxWrite(64, 2)
		p.TxRead(128)
		p.CommitHW() // footprint 3
		p.BeginHW(m.NextAge(), true)
		p.CommitHW() // footprint 0
	}})
	h := m.Count.HWFootprint.Snapshot()
	if h.Count != 2 || h.Max != 3 || h.Sum != 3 {
		t.Fatalf("hist = %+v", h)
	}
	if h.Mean() != 1.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if got := h.FracAtMost(4); got != 1.0 {
		t.Fatalf("FracAtMost(4) = %v", got)
	}
	if got := h.FracAtMost(0); got != 0.5 {
		t.Fatalf("FracAtMost(0) = %v (only the empty tx)", got)
	}
	if h.String() == "(empty)" {
		t.Fatal("String empty")
	}
	var empty obs.HistSnapshot
	if empty.String() != "(empty)" || empty.Mean() != 0 || empty.FracAtMost(1) != 0 {
		t.Fatal("empty hist misbehaves")
	}
}

func TestElapseUntil(t *testing.T) {
	// Forward target: the clock advances exactly to the target. Past or
	// current target: no-op. Interleaving: two processors pinned to
	// alternating slot times land their writes in slot order regardless
	// of program structure.
	run1(t, testParams(1), func(p *Proc) {
		p.ElapseUntil(500)
		if p.Now() != 500 {
			t.Fatalf("clock = %d, want 500", p.Now())
		}
		p.ElapseUntil(500)
		p.ElapseUntil(100)
		if p.Now() != 500 {
			t.Fatalf("clock moved on stale target: %d", p.Now())
		}
	})

	m := New(testParams(2))
	order := make([]int, 0, 4)
	mk := func(id int, slots ...uint64) func(*Proc) {
		return func(p *Proc) {
			for _, s := range slots {
				p.ElapseUntil(s)
				order = append(order, id)
			}
		}
	}
	// Proc 0 owns slots 0 and 2000, proc 1 slots 1000 and 3000.
	m.Run([]func(*Proc){mk(0, 0, 2000), mk(1, 1000, 3000)})
	want := []int{0, 1, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("slot order = %v, want %v", order, want)
		}
	}
}

// TestWildAddressFailsBeforeItIsIndexed: an access or a set_ufo_bits far
// past the end of memory halts with mem's own message, whether or not
// the thread takes UFO faults, and before the UFO bits or the directory
// are indexed by it: the UFO lookup used to halt with a Go index error,
// and the directory to grow its page index to the address (96 MiB for
// this one) before mem's check fired.
func TestWildAddressFailsBeforeItIsIndexed(t *testing.T) {
	const wild = 1 << 34
	params := DefaultParams(1) // 16 MiB
	for _, op := range []struct {
		name string
		do   func(*Proc)
	}{
		{"NTRead", func(p *Proc) { p.NTRead(wild) }},
		{"SetUFO", func(p *Proc) { p.SetUFO(wild, mem.UFOFaultAll) }},
	} {
		for _, ufo := range []bool{true, false} {
			m := New(params)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			halt := sim.Catch(func() {
				m.Run([]func(*Proc){func(p *Proc) {
					p.SetUFOEnabled(ufo)
					op.do(p)
				}})
			})
			runtime.ReadMemStats(&after)
			want := fmt.Sprintf("mem: access at %#x beyond memory size %#x", wild, m.Mem.Size())
			if halt == nil || !strings.Contains(halt.Error(), want) {
				t.Errorf("%s with UFO %v: halted with %v, want %q", op.name, ufo, halt, want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("%s with UFO %v: the run allocated %d KiB, want under 1 MiB", op.name, ufo, got>>10)
			}
		}
	}
}
