// Package ustm implements USTM, the paper's eager-versioning,
// eager-conflict-detection, cache-line-granularity software transactional
// memory (§4.1), together with its strong-atomicity extension via
// UFO memory protection (§4.2) and the retry transactional-waiting
// primitive (§6).
//
// USTM's shared state is an ownership table (otable): a chained hash table
// with one record per cache line currently read or written by any software
// transaction. Each otable row occupies its own simulated-memory cache
// line, so the timing (and, for HyTM, the transactional footprint) of
// otable traffic is modeled faithfully.
//
// Conflict resolution is age-based and blocking: a transaction that
// conflicts with an older transaction stalls; one that conflicts only with
// younger transactions signals them to abort and waits until they have
// unwound (releasing their otable entries) before proceeding. An aborted
// transaction waits until its killer has retired before reissuing,
// avoiding otable contention and livelock — both policies straight from
// the paper.
package ustm

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/tm"
)

// Cycles charged for the software logic of each operation, on top of the
// memory traffic the operations generate.
const (
	BeginCycles   = 30 // ustm_begin bookkeeping
	CommitCycles  = 20 // ustm_end bookkeeping
	BarrierCycles = 10 // fixed logic per read/write barrier
	CASCycles     = 4  // compare&swap on an otable row
	ReleaseCycles = 6  // per-entry release at end of transaction
	LogCycles     = 3  // per logged word (eager versioning)
	StallCycles   = 40 // poll interval while stalling on a conflictor
	NTStallCycles = 60 // poll interval for a faulting nonT access
)

// Config carries USTM's parameters.
type Config struct {
	// OTableRows is the number of hash rows; the paper notes realistic
	// implementations use at least tens of thousands. Must be a power of
	// two.
	OTableRows int
	// StrongAtomicity installs UFO protection on transactionally-held
	// lines (Section 4.2). Disable to model the baseline (weakly atomic)
	// USTM or HyTM's STM half.
	StrongAtomicity bool
	// LineGranularUndo logs (and on abort restores) the *whole* cache
	// line on the first write to it, instead of just the written words —
	// the "granularity for handling writes larger than the minimum-sized
	// write" that produces Figure 2b's lost non-transactional updates in
	// weakly-atomic systems. Off by default; enable to demonstrate the
	// anomaly (and that strong atomicity prevents it).
	LineGranularUndo bool
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{OTableRows: 1 << 16, StrongAtomicity: true}
}

// STM is one USTM instance: the otable plus per-thread transaction state.
// It implements tm.System.
type STM struct {
	m     *machine.Machine
	cfg   Config
	ot    *otable
	stats *tm.Stats

	threads map[int]*Thread
}

// New creates a USTM over the machine, reserving simulated memory for the
// otable rows.
func New(m *machine.Machine, cfg Config) *STM {
	if cfg.OTableRows <= 0 || cfg.OTableRows&(cfg.OTableRows-1) != 0 {
		panic(fmt.Sprintf("ustm: OTableRows %d must be a positive power of two", cfg.OTableRows))
	}
	return &STM{
		m:       m,
		cfg:     cfg,
		ot:      newOTable(m, cfg.OTableRows),
		stats:   new(tm.Stats),
		threads: make(map[int]*Thread),
	}
}

// Name implements tm.System.
func (s *STM) Name() string {
	if s.cfg.StrongAtomicity {
		return "ustm+ufo"
	}
	return "ustm"
}

// Stats implements tm.System.
func (s *STM) Stats() *tm.Stats { return s.stats }

// Thread returns (creating on first use) the per-processor transaction
// context. The hybrid TM uses this to share one STM across paths.
func (s *STM) Thread(p *machine.Proc) *Thread {
	if t, ok := s.threads[p.ID()]; ok {
		return t
	}
	t := &Thread{stm: s, p: p}
	s.threads[p.ID()] = t
	return t
}

// Exec implements tm.System.
func (s *STM) Exec(p *machine.Proc) tm.Exec {
	return &exec{t: s.Thread(p)}
}

// RowAddr exposes the simulated address of the otable row covering line;
// HyTM's hardware barriers read it transactionally.
func (s *STM) RowAddr(line uint64) uint64 { return s.ot.rowAddr(s.ot.index(line)) }

// LineConflicts reports whether the otable holds a record that conflicts
// with an access of the given kind to line (HyTM's hardware-barrier
// check): any record conflicts with a write; only write records conflict
// with a read.
func (s *STM) LineConflicts(line uint64, write bool) bool {
	e := s.ot.row(s.ot.index(line)).find(line)
	if e == nil {
		return false
	}
	return write || e.write
}

// ConflictingOwnerProc returns the processor ID of the first software
// transaction whose otable record conflicts with an access of the given
// kind to line, or -1 when no conflicting record exists. HyTM's hardware
// barriers use it to attribute barrier-detected aborts to the software
// transaction that caused them.
func (s *STM) ConflictingOwnerProc(line uint64, write bool) int {
	e := s.ot.row(s.ot.index(line)).find(line)
	if e == nil || len(e.owners) == 0 {
		return -1
	}
	if !write && !e.write {
		return -1
	}
	return e.owners[0].p.ID()
}

// OwnersAllRetrying reports whether line has at least one owner and every
// owner is a retrying (descheduled) transaction. The hybrid's UFO-fault
// handler uses this to distinguish waiting transactions from active
// conflicts (Section 6).
func (s *STM) OwnersAllRetrying(line uint64) bool {
	e := s.ot.row(s.ot.index(line)).find(line)
	if e == nil || len(e.owners) == 0 {
		return false
	}
	for _, o := range e.owners {
		if o.status != statusRetrying {
			return false
		}
	}
	return true
}

// RetryingOwners returns the retrying owners of line (for wake-up
// scheduling by hardware transactions and non-transactional writers).
func (s *STM) RetryingOwners(line uint64) []*Thread {
	e := s.ot.row(s.ot.index(line)).find(line)
	if e == nil {
		return nil
	}
	var out []*Thread
	for _, o := range e.owners {
		if o.status == statusRetrying {
			out = append(out, o)
		}
	}
	return out
}

// WakeRetriers wakes the given retrying transactions; callers invoke this
// after making their conflicting update visible (after a hardware commit
// or a non-transactional store).
func (s *STM) WakeRetriers(p *machine.Proc, ts []*Thread) {
	for _, t := range ts {
		t.wake(p)
	}
}
