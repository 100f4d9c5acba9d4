package machine

// Per-transaction lifecycle emitters. The one hybrid driver (internal/tm)
// and the hand-written Atomic loops call these to put a transaction's
// begin → attempt → abort/backoff/retry-wait → commit sequence on the
// event stream, where txstats.Recorder accounts it and the Chrome sink
// turns tx-begin/tx-commit into per-transaction spans. Like every emit
// they never advance the simulated clock and never draw from any RNG, so
// observed and unobserved runs are cycle-identical, and each costs one
// mask test when nobody subscribed to its kind.

// TxLifeArrival tags the next logical transaction on this proc with its
// open-loop request arrival cycle. Workloads call it immediately before
// the Atomic call that services the request.
func (p *Proc) TxLifeArrival(cycle uint64) {
	p.emit(TraceEvent{Kind: TraceTxArrival, Proc: p.ID(), Arg: cycle})
}

// TxLifeBegin marks the start of one logical transaction (an Atomic
// call spanning every attempt).
func (p *Proc) TxLifeBegin() {
	p.emit(TraceEvent{Kind: TraceTxBegin, Proc: p.ID()})
}

// TxLifeAttempt marks the start of one attempt on the given path.
func (p *Proc) TxLifeAttempt(path TxPath) {
	p.emit(TraceEvent{Kind: TraceTxAttempt, Proc: p.ID(), Path: path, Flags: FlagPath})
}

// TxLifeAbort marks the failure of the current attempt for the given
// reason.
func (p *Proc) TxLifeAbort(path TxPath, reason AbortReason) {
	p.emit(TraceEvent{Kind: TraceTxAbort, Proc: p.ID(), Path: path, Reason: reason, Flags: FlagPath})
}

// TxLifeRetryWait marks a Retry suspension (§6): cycles from the current
// attempt's start until the next TxLifeAttempt count as transactional
// waiting rather than wasted work.
func (p *Proc) TxLifeRetryWait() {
	p.emit(TraceEvent{Kind: TraceTxRetryWait, Proc: p.ID()})
}

// TxLifeBackoff reports cycles just spent in a contention-management
// delay (cm calls it after Elapse).
func (p *Proc) TxLifeBackoff(cycles uint64) {
	p.emit(TraceEvent{Kind: TraceTxBackoff, Proc: p.ID(), Arg: cycles})
}

// TxLifeCommit marks the successful end of the transaction on the given
// path; sw says the committing attempt ran in software (a token-holding
// hardware attempt is on the fallback path too, so the path cannot).
func (p *Proc) TxLifeCommit(path TxPath, sw bool) {
	flags := FlagPath
	if sw {
		flags |= FlagSW
	}
	p.emit(TraceEvent{Kind: TraceTxCommit, Proc: p.ID(), Path: path, Flags: flags})
}
