package machine

// Per-transaction lifecycle emitters. The one hybrid driver (internal/tm)
// and the hand-written Atomic loops call these to mark a transaction's
// begin → attempt → abort/backoff/retry-wait → commit sequence. Each
// counts it in the machine's tally (Counters), which nothing else
// writes, and puts it on the event stream, where txstats.Recorder times
// it and the Chrome sink draws each attempt and each transaction as a
// span. Like every emit they never advance the simulated clock and
// never draw from any RNG, so observed and unobserved runs are
// cycle-identical, and each costs one mask test when nobody subscribed
// to its kind.

// TxLifeArrival tags the next logical transaction on this proc with its
// open-loop request arrival cycle. Workloads call it immediately before
// the Atomic call that services the request.
func (p *Proc) TxLifeArrival(cycle uint64) {
	p.emit(TraceEvent{Kind: TraceTxArrival, Proc: p.ID(), Arg: cycle})
}

// TxLifeBegin marks the start of one logical transaction (an Atomic
// call spanning every attempt) of the given age (NextAge).
func (p *Proc) TxLifeBegin(age uint64) {
	p.m.Count.Begun++
	p.emit(TraceEvent{Kind: TraceTxBegin, Proc: p.ID(), Age: age, Flags: FlagAge})
}

// TxLifeAttempt marks the start of one attempt on the given path.
func (p *Proc) TxLifeAttempt(path TxPath) {
	p.m.Count.AttemptsByPath[path]++
	p.emit(TraceEvent{Kind: TraceTxAttempt, Proc: p.ID(), Path: path, Flags: FlagPath})
}

// TxLifeAbort marks the failure of the current attempt for the given
// reason; sw says the attempt ran in software, as for TxLifeCommit.
func (p *Proc) TxLifeAbort(path TxPath, reason AbortReason, sw bool) {
	p.m.Count.Aborts[path][reason]++
	flags := FlagPath
	if sw {
		p.m.Count.SWAborts++
		flags |= FlagSW
	}
	p.emit(TraceEvent{Kind: TraceTxAbort, Proc: p.ID(), Path: path, Reason: reason, Flags: flags})
}

// TxLifeRetryWait marks a Retry suspension (§6): cycles from the current
// attempt's start until the next TxLifeAttempt count as transactional
// waiting rather than wasted work.
func (p *Proc) TxLifeRetryWait() {
	p.m.Count.RetryWaits++
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
	p.m.Count.CommitsByPath[path]++
	flags := FlagPath
	if sw {
		p.m.Count.SWCommits++
		flags |= FlagSW
	} else {
		p.m.Count.HWCommits++
	}
	p.emit(TraceEvent{Kind: TraceTxCommit, Proc: p.ID(), Path: path, Flags: flags})
}
