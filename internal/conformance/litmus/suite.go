package litmus

import "repro/internal/harness"

// The curated suite: the classic shapes from the litmus-test literature,
// adapted to the transactional/non-transactional boundary that strong
// atomicity is about. Each program's Forbidden states are outcomes no
// strongly-atomic serializable execution can produce (the suite tests
// assert they lie outside the oracle), and Witnesses records which
// systems actually exhibit one somewhere in the default schedule space —
// verified empirically by TestCuratedWitnesses, so a semantics change in
// any system shows up as a diff here.
//
// Paper: §2 (Table 1's programming-model discussion is exactly the
// mp-nt-witness and intermediate-value shapes: non-transactional code
// observing a transaction's partial effects).

// Curated returns the hand-written litmus programs.
func Curated() []*Program {
	return []*Program{
		{
			Name: "sb-tx",
			Doc: "Store buffering, fully transactional: both threads write one " +
				"variable and read the other inside single transactions. Plain " +
				"serializability already forbids both loads returning 0, so every " +
				"system — including the weakly-atomic ones — must refuse it.",
			Vars: 2,
			Threads: []Thread{
				T("writer-x", Atomic(W(0, 1), R(1))),
				T("writer-y", Atomic(W(1, 1), R(0))),
			},
			Expect: Expect{
				Forbidden: []Cond{{"t0:r0": 0, "t1:r0": 0}},
			},
		},
		{
			Name: "sb-nt",
			Doc: "Store buffering, fully non-transactional. The simulated machine " +
				"is sequentially consistent (processors interleave at memory " +
				"operations; there are no store buffers), so the classic relaxed " +
				"outcome r0=r1=0 is unreachable on every system. The test pins " +
				"down that baseline: TM anomalies in the other programs come from " +
				"the TM runtimes, not the memory system.",
			Vars: 2,
			Threads: []Thread{
				T("writer-x", NT(W(0, 1)), NT(R(1))),
				T("writer-y", NT(W(1, 1)), NT(R(0))),
			},
			Expect: Expect{
				Forbidden: []Cond{{"t0:r0": 0, "t1:r0": 0}},
			},
		},
		{
			Name: "sb-nt-fence",
			Doc: "Store buffering with a fence between the store and the load. On " +
				"this SC machine the fence is a schedulable no-op; the outcome set " +
				"must match sb-nt exactly (the enumerator's fence handling is what " +
				"is under test).",
			Vars: 2,
			Threads: []Thread{
				T("writer-x", NT(W(0, 1)), NT(F()), NT(R(1))),
				T("writer-y", NT(W(1, 1)), NT(F()), NT(R(0))),
			},
			Expect: Expect{
				Forbidden: []Cond{{"t0:r0": 0, "t1:r0": 0}},
			},
		},
		{
			Name: "mp-nt-witness",
			Doc: "Message passing with a non-transactional observer: one " +
				"transaction writes flag y then payload x; a non-transactional " +
				"reader loads y then x. Seeing y=1 but x=0 means the reader " +
				"caught the transaction between its two stores — the canonical " +
				"strong-atomicity violation. Eager in-place systems without UFO " +
				"(ustm, global-lock) witness it; UFO systems stall the reader " +
				"until the transaction is done.",
			Vars: 2,
			Threads: []Thread{
				T("tx-writer", Atomic(W(1, 1), W(0, 1))),
				T("nt-reader", NT(R(1)), NT(R(0))),
			},
			Expect: Expect{
				Forbidden: []Cond{{"t1:r0": 1, "t1:r1": 0}},
				Witnesses: []harness.SystemKind{harness.GlobalLock, harness.USTM},
			},
		},
		{
			Name: "mp-writeback",
			Doc: "Message passing against a lazy commit: the transaction writes " +
				"flag y, padding z, then payload x, so TL2's in-insertion-order " +
				"write-back publishes y well before x. A non-transactional reader " +
				"that loads y=1 and then x=0 has straddled the write-back window " +
				"— invisible to transactions (the locks are still held) but not " +
				"to non-transactional code. The eager in-place systems witness " +
				"the same state through their store gap.",
			Vars: 3,
			Threads: []Thread{
				T("tx-writer", Atomic(W(1, 1), W(2, 1), W(0, 1))),
				T("nt-reader", NT(R(1)), NT(R(0))),
			},
			Expect: Expect{
				Forbidden: []Cond{{"t1:r0": 1, "t1:r1": 0}},
				Witnesses: []harness.SystemKind{harness.GlobalLock, harness.TL2, harness.USTM},
			},
		},
		{
			Name: "intermediate-value",
			Doc: "Dirty read of a value that never commits: the transaction " +
				"writes x=1 then overwrites it with x=2, so 1 exists only inside " +
				"the transaction. A non-transactional reader returning 1 has seen " +
				"eager uncommitted state — this is the shape that separates " +
				"eager-update weak atomicity (ustm, global-lock: witness) from " +
				"lazy weak atomicity (tl2: the redo log deduplicates, 1 is never " +
				"in memory).",
			Vars: 1,
			Threads: []Thread{
				T("tx-writer", Atomic(W(0, 1), W(0, 2))),
				T("nt-reader", NT(R(0)), NT(R(0))),
			},
			Expect: Expect{
				Forbidden: []Cond{{"t1:r0": 1}, {"t1:r1": 1}},
				Witnesses: []harness.SystemKind{harness.GlobalLock, harness.USTM},
			},
		},
		{
			Name: "privatization",
			Doc: "Privatization: thread 0 transactionally raises a flag that " +
				"logically privatizes x, then accesses x non-transactionally; " +
				"thread 1's transaction reads the flag down (serializing before " +
				"the privatizer) and writes x. If thread 1's write lands in " +
				"memory after thread 0's private read — a delayed lazy write-back " +
				"— the private read misses an update from a transaction that " +
				"committed before the privatization: t1 saw y=0 yet t0's read of " +
				"x returned 0. TL2 is the only candidate (its commit write-back " +
				"is the delayed write), but its window here is one store wide " +
				"(~a line transfer) and the privatizer's own commit has to fit " +
				"inside it, so no schedule in the default space reaches it — the " +
				"anomaly is documented as unreachable in this simulation.",
			Vars: 2,
			Threads: []Thread{
				T("privatizer", Atomic(W(1, 1)), NT(R(0))),
				T("updater", Atomic(R(1), W(0, 42))),
			},
			Expect: Expect{
				Forbidden: []Cond{{"t1:r0": 0, "t0:r0": 0}},
			},
		},
		{
			Name: "publication",
			Doc: "Publication: thread 0 initializes x non-transactionally, then " +
				"transactionally publishes it by raising y; thread 1 " +
				"transactionally reads the flag and, having seen it up, reads x " +
				"non-transactionally. Seeing y=1 but x=0 would reorder the " +
				"publisher's initialization after its publishing transaction. " +
				"Unreachable on every system here: the initialization completes " +
				"before the publishing transaction begins on the same processor, " +
				"and the machine is SC.",
			Vars: 2,
			Threads: []Thread{
				T("publisher", NT(W(0, 1)), Atomic(W(1, 1))),
				T("subscriber", Atomic(R(1)), NT(R(0))),
			},
			Expect: Expect{
				Forbidden: []Cond{{"t1:r0": 1, "t1:r1": 0}},
			},
		},
	}
}
