package ustm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// The reference otable: what the table was before its records were
// pooled — a slice of pointers per row, a heap record per insert, a heap
// slice of owners per record — kept for TestOTableMatchesReference only.
type refRow struct{ entries []*refEntry }

type refEntry struct {
	tag    uint64
	write  bool
	owners []*Thread
}

func (r *refRow) find(line uint64) *refEntry {
	for _, e := range r.entries {
		if e.tag == line {
			return e
		}
	}
	return nil
}

func (r *refRow) remove(e *refEntry) {
	r.entries = slices.DeleteFunc(r.entries, func(x *refEntry) bool { return x == e })
}

func (e *refEntry) hasOwner(t *Thread) bool { return slices.Contains(e.owners, t) }

func (e *refEntry) dropOwner(t *Thread) bool {
	e.owners = slices.DeleteFunc(e.owners, func(o *Thread) bool { return o == t })
	return len(e.owners) == 0
}

// steal is resolveConflict's old loop: over a snapshot of the owners, drop
// the retrying ones and list the rest bar t.
func (e *refEntry) steal(t *Thread) (active []*Thread) {
	for _, o := range append([]*Thread(nil), e.owners...) {
		switch {
		case o == t:
		case o.status == statusRetrying:
			e.dropOwner(o)
		default:
			active = append(active, o)
		}
	}
	return active
}

// park is a barrier that yielded with a record in hand: a reader joining
// it (after the CAS delay) or a killer waiting for active to leave it.
type park struct {
	t      *Thread
	e      *entry
	ref    *refEntry
	active []*Thread // nil for a join
}

// TestOTableMatchesReference drives the pooled otable and the reference
// with one seeded sequence of what barriers, releases and retries do to
// a row — insert, join (with the joiner parked over the CAS delay, as in
// resolveConflict), upgrade, steal from retriers, release — on a table
// small enough that chains form. After every step the chains (tags,
// permissions and owners, in order: kills follow owner order), what each
// parked barrier sees of the record it holds, and Owner must agree, and
// no row may hold a record with no owners — the invariant that lets
// Owner's one answer say both whether a line conflicts and who holds
// it. The sequence must include the two cases the pin rule exists
// for: a record leaving its row while a barrier is parked on it, and a
// freed record coming back for another line while parked barriers still
// hold records of their own.
func TestOTableMatchesReference(t *testing.T) {
	const procs, rows, lines, steps = 6, 4, 12, 20000
	m := testMachine(procs)
	cfg := DefaultConfig()
	cfg.OTableRows = rows
	s := New(m, cfg)
	ot := s.ot
	ref := make([]refRow, rows)
	threads := make([]*Thread, procs)
	owned := make([][]uint64, procs) // the lines each thread's log lists
	for i := range threads {
		threads[i] = s.Thread(m.Proc(i))
		threads[i].status = statusRunning
	}
	var parks []park
	parked := func(t *Thread) bool {
		return slices.ContainsFunc(parks, func(p park) bool { return p.t == t })
	}
	var pinnedDetach, lateJoins, reusedUnderParks int
	lastTag := map[*entry]uint64{}

	remove := func(idx uint64, e *entry, re *refEntry) {
		if e.pins > 0 {
			pinnedDetach++
		}
		ot.remove(ot.row(idx), e)
		ref[idx].remove(re)
	}
	release := func(id int) {
		t := threads[id]
		for _, line := range owned[id] {
			idx := ot.index(line)
			e, re := ot.row(idx).find(line), ref[idx].find(line)
			if e == nil || !e.hasOwner(t) {
				if re != nil && re.hasOwner(t) {
					panic("reference still lists an owner the table dropped")
				}
				continue
			}
			if gone, refGone := e.dropOwner(t), re.dropOwner(t); gone != refGone {
				panic("last-owner verdicts differ")
			} else if gone {
				remove(idx, e, re)
			}
		}
		owned[id] = owned[id][:0]
	}
	barrier := func(id int, line uint64, write bool) {
		t := threads[id]
		idx := ot.index(line)
		r := ot.row(idx)
		e, re := r.find(line), ref[idx].find(line)
		switch {
		case e == nil:
			ot.Dirty(idx)
			ot.insert(r, line, write, t)
			ref[idx].entries = append(ref[idx].entries, &refEntry{tag: line, write: write, owners: []*Thread{t}})
			owned[id] = append(owned[id], line)
			e = r.find(line)
			if was, seen := lastTag[e]; seen && was != line && len(parks) > 0 {
				reusedUnderParks++
			}
			lastTag[e] = line
		case e.soleOwner(t):
			if write {
				e.write, re.write = true, true
			}
		case e.hasOwner(t) && (e.write || !write):
		case !write && !e.write:
			e.pins++
			parks = append(parks, park{t: t, e: e, ref: re})
		default:
			active, refActive := t.stealFromRetriers(e), re.steal(t)
			if !slices.Equal(active, refActive) {
				panic(fmt.Sprintf("active owners differ: %v, reference %v", active, refActive))
			}
			switch {
			case len(active) > 0:
				e.pins++
				parks = append(parks, park{t: t, e: e, ref: re, active: slices.Clone(active)})
			case len(e.owners) == 0:
				remove(idx, e, re)
			}
		}
	}
	// wake finishes a parked barrier if it can be: a join always, a
	// kill-wait once every owner it waits for has left the record.
	wake := func(i int) {
		p := parks[i]
		if p.active == nil {
			if ot.row(ot.index(p.e.tag)).find(p.e.tag) != p.e {
				lateJoins++
			}
			p.e.owners, p.ref.owners = append(p.e.owners, p.t), append(p.ref.owners, p.t)
			owned[p.t.p.ID()] = append(owned[p.t.p.ID()], p.e.tag)
		} else if slices.ContainsFunc(p.active, p.e.hasOwner) {
			return
		}
		p.e.pins--
		parks = slices.Delete(parks, i, i+1)
	}
	check := func(step int) {
		for idx := range ref {
			for e := ot.Rows[idx].head; e != nil; e = e.next {
				if len(e.owners) == 0 {
					t.Fatalf("step %d row %d: the record of line %d has no owners", step, idx, e.tag)
				}
			}
			e := ot.Rows[idx].head
			for _, re := range ref[idx].entries {
				if e == nil || e.tag != re.tag || e.write != re.write || !slices.Equal(e.owners, re.owners) {
					t.Fatalf("step %d row %d: chain differs from the reference at line %d", step, idx, re.tag)
				}
				e = e.next
			}
			if e != nil {
				t.Fatalf("step %d row %d: chain longer than the reference's", step, idx)
			}
		}
		for _, p := range parks {
			if p.e.tag != p.ref.tag || p.e.write != p.ref.write || !slices.Equal(p.e.owners, p.ref.owners) {
				t.Fatalf("step %d: thread %d woke holding line %d %v, reference line %d %v",
					step, p.t.p.ID(), p.e.tag, p.e.owners, p.ref.tag, p.ref.owners)
			}
		}
		for line := uint64(0); line < lines; line++ {
			re := ref[ot.index(line)].find(line)
			owner, write := s.Owner(line)
			wantOwner, wantWrite := -1, false
			if re != nil {
				wantOwner, wantWrite = re.owners[0].p.ID(), re.write
			}
			if owner != wantOwner || write != wantWrite {
				t.Fatalf("step %d: Owner(%d) = %d, %v; reference %d, %v", step, line, owner, write, wantOwner, wantWrite)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < steps; step++ {
		id := rng.Intn(procs)
		th := threads[id]
		switch op := rng.Intn(10); {
		case len(parks) > 0 && op < 3:
			wake(rng.Intn(len(parks)))
		case parked(th):
		case th.status == statusRetrying:
			th.status = statusRunning // woken: WokenSW releases and retires
			release(id)
		case op < 8:
			barrier(id, uint64(rng.Intn(lines)), rng.Intn(3) == 0)
		case op == 8:
			release(id) // commit or abort
		default:
			// Retry: write entries become read entries, then deschedule.
			for _, line := range owned[id] {
				idx := ot.index(line)
				if e := ot.row(idx).find(line); e != nil && e.hasOwner(th) {
					e.write, ref[idx].find(line).write = false, false
				}
			}
			th.status = statusRetrying
		}
		check(step)
	}
	if pinnedDetach == 0 || lateJoins == 0 || reusedUnderParks == 0 {
		t.Fatalf("sequence missed a case: %d records left their row pinned, %d joins landed on a detached record, %d freed records came back for another line under a parked barrier",
			pinnedDetach, lateJoins, reusedUnderParks)
	}
}

// TestKnownDefectLateReaderJoinsDetachedRecord documents a defect this
// package has and does not yet fix (DESIGN.md §25). A reader that joins
// a read entry locks the row and pays the CAS delay before it adds
// itself; releaseAll ignores the row lock, so the entry's last owner can
// remove it inside that delay, and the reader then adds itself to a
// record no row holds. The barrier re-examines the row before it
// returns, finds nothing and inserts a record of its own, so isolation
// holds — the younger writer below waits, and the reader's two loads
// agree — but the reader's log now lists the line twice: its footprint
// is over-counted by one and its release pays for the line twice.
//
// Three threads, the arrival of the second swept a cycle at a time until
// its CAS delay straddles the first one's release. When the defect is
// fixed no delay reproduces it: turn this test into its regression test.
func TestKnownDefectLateReaderJoinsDetachedRecord(t *testing.T) {
	const addr, private = 0x4000, 0x8000
	line := mem.LineOf(addr)
	for delay := uint64(0); delay < 1000; delay++ {
		m := testMachine(3)
		s := testSTM(m, true)
		m.Mem.Write64(addr, 1)
		ex := []tm.Exec{s.Exec(m.Proc(0)), s.Exec(m.Proc(1)), s.Exec(m.Proc(2))}
		var logged int
		var recorded, joined, written bool
		var first, second uint64
		m.Run([]func(*machine.Proc){
			func(*machine.Proc) { // the last owner: reads, and releases
				ex[0].Atomic(func(tx tm.Tx) { tx.Load(addr) })
			},
			func(p *machine.Proc) { // the late joiner
				p.Elapse(delay)
				ex[1].Atomic(func(tx tm.Tx) {
					first = tx.Load(addr)
					th := s.Thread(p)
					logged = 0
					for _, rec := range th.owned {
						if rec.line == line {
							logged++
						}
					}
					e := s.ot.row(s.ot.index(line)).find(line)
					recorded = e != nil && e.hasOwner(th)
					joined = true
					for i := 0; i < 100 && !written; i++ {
						tx.Load(private) // a barrier: where a kill would land
						p.Elapse(50)
					}
					second = tx.Load(addr)
				})
			},
			func(p *machine.Proc) { // the younger writer
				for !joined {
					p.Elapse(10)
				}
				ex[2].Atomic(func(tx tm.Tx) { tx.Store(addr, 2) })
				written = true
			},
		})
		if !recorded || first != 1 || second != 1 || m.Count.SWAborts != 0 {
			t.Fatalf("delay %d: reader recorded=%v saw %d then %d with %d aborts; want a recorded reader seeing 1 twice",
				delay, recorded, first, second, m.Count.SWAborts)
		}
		if logged == 2 {
			return // the defect: one line, two log entries
		}
	}
	t.Fatal("no arrival delay under 1000 cycles made a reader log its line twice: if the join was fixed, make this its regression test")
}
