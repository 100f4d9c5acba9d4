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
	m   *machine.Machine
	cfg Config
	ot  *otable

	threads []*Thread // by processor, nil until Thread is asked for it
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
		threads: make([]*Thread, len(m.Procs())),
	}
}

// Name implements tm.System.
func (s *STM) Name() string {
	if s.cfg.StrongAtomicity {
		return "ustm+ufo"
	}
	return "ustm"
}

// Thread returns p's transaction context: p's kept Thread
// (machine.ContextOf), rewritten for s on the first call. The hybrid TMs
// use this to share one STM across paths.
func (s *STM) Thread(p *machine.Proc) *Thread {
	if t := s.threads[p.ID()]; t != nil {
		return t
	}
	t, _ := machine.ContextOf[Thread](p)
	*t = Thread{stm: s, p: p, nt: tm.NT{P: p}, undo: t.undo[:0], owned: t.owned[:0], toWake: machine.Emptied(t.toWake),
		active: machine.Emptied(t.active), onCommit: machine.Emptied(t.onCommit), nestSave: t.nestSave[:0]}
	s.threads[p.ID()] = t
	return t
}

// Exec implements tm.System.
func (s *STM) Exec(p *machine.Proc) tm.Exec {
	t := s.Thread(p)
	e, _ := machine.ContextOf[exec](p)
	*e = exec{Driver: tm.Driver{NT: tm.NT{P: p}, SW: t}, t: t}
	return e
}

// RowAddr exposes the simulated address of the otable row covering line;
// HyTM's hardware barriers read it transactionally.
func (s *STM) RowAddr(line uint64) uint64 { return s.ot.rowAddr(s.ot.index(line)) }

// Owner returns the processor of the first transaction holding line's
// otable record, and whether the record is a write record; -1 when the
// otable has no record of line. Every record has an owner, so this
// answers both of HyTM's hardware-barrier questions: whether an access
// conflicts with a software transaction (any record conflicts with a
// write, only a write record with a read), and whom to name for it.
func (s *STM) Owner(line uint64) (proc int, write bool) {
	e := s.ot.find(line)
	if e == nil {
		return -1, false
	}
	return e.owners[0].p.ID(), e.write
}

// retriers returns line's owners when every one of them is a retrying
// (descheduled) transaction, and nil when the line has an active owner
// or none (Section 6). The slice is the record's own, good until the
// next scheduling point.
func (s *STM) retriers(line uint64) []*Thread {
	e := s.ot.find(line)
	if e == nil {
		return nil
	}
	for _, o := range e.owners {
		if o.status != statusRetrying {
			return nil
		}
	}
	return e.owners
}
