// Package cm is the contention-management layer shared by every TM
// system in the repo. The paper fixes one policy — capped exponential
// backoff driven by a saturating abort counter, with page faults
// resolved by a fixed stall (§4.4, Algorithm 3) — but treats the choice
// as a first-class design axis in its Figure 8 sensitivity study, and
// later hybrid-TM work (Alistarh et al.; Brown & Ravi, see PAPERS.md)
// shows progress policy can dominate hybrid performance. This package
// therefore makes the policy pluggable: a Policy decides how long an
// aborted transaction waits before retrying and when it should stop
// retrying and escalate, and a Manager binds one policy to one system
// instance, charges the simulated delays, and counts every decision for
// the observability layer.
//
// The default CappedExponential policy reproduces the paper's §4.4
// behaviour cycle-for-cycle: delay = Base << min(attempt, MaxShift)
// plus one uniform jitter draw in [0, Base). Construction funnels
// through Spec, the single validation site — a zero or absurd backoff
// base is defaulted here rather than reaching Rand.Intn(0) in a retry
// loop.
package cm

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Defaults shared by every policy. DefaultBase and DefaultMaxShift are
// the paper's §4.4 constants (64-cycle unit, saturating 3-bit counter);
// the stall and poll cycles are the fixed costs the systems previously
// hard-coded inline.
const (
	DefaultBase      uint64 = 64
	DefaultMaxShift         = 7
	DefaultStarveK          = 8
	DefaultLinearCap        = 128

	// PageFaultStallCycles models resolving a page fault (touching the
	// page non-transactionally) before re-executing — not contention.
	PageFaultStallCycles uint64 = 500
	// RetryPollCycles is the poll interval for emulated transactional
	// waiting in systems with no native retry support.
	RetryPollCycles uint64 = 2000
	// TokenPollCycles is the spin interval while waiting for the global
	// serialization token.
	TokenPollCycles uint64 = 100
)

// Escalation is a policy's verdict on an aborted transaction: keep
// retrying after a delay, or stop burning attempts and force progress.
type Escalation int

// Escalation verdicts.
const (
	// EscalateNone: back off and retry as usual.
	EscalateNone Escalation = iota
	// EscalateSerialize: the transaction is starving; the system should
	// grant it exclusivity — hybrids fail over to their software path
	// early, systems with no fallback take the Manager's global token.
	EscalateSerialize
)

// Policy decides retry delays and escalation. Implementations must be
// deterministic: the only randomness source is the *sim.Rand handed to
// NextDelay, and exactly one Intn draw is made per call so RNG streams
// stay aligned with the pre-refactor systems. Policies are per machine
// run and are driven by the engine's cooperative scheduler, so they
// need no locking.
type Policy interface {
	// Name identifies the policy in reports and metrics.
	Name() string
	// NextDelay returns the backoff (cycles) before retry attempt
	// `attempt` (the caller's consecutive-abort count for this
	// transaction). It must draw exactly once from r.
	NextDelay(attempt int, reason machine.AbortReason, r *sim.Rand) uint64
	// OnAbort is the escalation hook, consulted before NextDelay. age is
	// the transaction's global begin timestamp (its conflict-resolution
	// priority).
	OnAbort(age uint64, attempt int, reason machine.AbortReason) Escalation
	// OnCommit tells the policy a transaction finished (committed, or
	// completed on an escalated path), so it can retire any state held
	// for it.
	OnCommit(age uint64)
}

// CappedExponential is the paper's policy: Base << min(attempt,
// MaxShift) plus uniform jitter in [0, Base). The clamp is what the
// hand-rolled SLE loop lacked — without it, attempt counts past 57
// overflow the uint64 shift into zero-or-absurd delays.
type CappedExponential struct {
	Base     uint64
	MaxShift int
}

// Name implements Policy.
func (c CappedExponential) Name() string { return "exp" }

// NextDelay implements Policy.
func (c CappedExponential) NextDelay(attempt int, _ machine.AbortReason, r *sim.Rand) uint64 {
	return c.Base<<uint(clamp(attempt, c.MaxShift)) + uint64(r.Intn(int(c.Base)))
}

// OnAbort implements Policy: pure backoff, never escalates.
func (c CappedExponential) OnAbort(uint64, int, machine.AbortReason) Escalation {
	return EscalateNone
}

// OnCommit implements Policy.
func (c CappedExponential) OnCommit(uint64) {}

// Linear backs off proportionally to the attempt count: Base *
// min(attempt, Cap) plus jitter. Gentler than exponential under
// moderate contention (retries stay frequent), at the cost of more
// wasted work when contention is heavy.
type Linear struct {
	Base uint64
	Cap  int
}

// Name implements Policy.
func (l Linear) Name() string { return "linear" }

// NextDelay implements Policy.
func (l Linear) NextDelay(attempt int, _ machine.AbortReason, r *sim.Rand) uint64 {
	n := attempt
	if n < 1 {
		n = 1
	}
	if n > l.Cap {
		n = l.Cap
	}
	return l.Base*uint64(n) + uint64(r.Intn(int(l.Base)))
}

// OnAbort implements Policy.
func (l Linear) OnAbort(uint64, int, machine.AbortReason) Escalation { return EscalateNone }

// OnCommit implements Policy.
func (l Linear) OnCommit(uint64) {}

// Karma is a Polka/Karma-style priority policy: every active
// transaction accrues karma with each abort, and a transaction's
// backoff grows with the karma advantage its strongest rival holds over
// it. A long-suffering transaction (high karma) therefore retries almost
// immediately while newcomers yield — the age-based priority idea of
// Scherer & Scott's contention managers, adapted to the simulator's
// deterministic setting.
type Karma struct {
	Base     uint64
	MaxShift int

	// active tracks (age, karma) for transactions currently retrying.
	// Bounded by the processor count; scanned linearly so iteration
	// order is deterministic.
	active []karmaEntry
}

type karmaEntry struct {
	age   uint64
	karma int
}

// Name implements Policy.
func (k *Karma) Name() string { return "karma" }

// OnAbort implements Policy: record the transaction's karma (its
// consecutive-abort count) so rivals can weigh themselves against it.
func (k *Karma) OnAbort(age uint64, attempt int, _ machine.AbortReason) Escalation {
	for i := range k.active {
		if k.active[i].age == age {
			k.active[i].karma = attempt
			return EscalateNone
		}
	}
	k.active = append(k.active, karmaEntry{age: age, karma: attempt})
	return EscalateNone
}

// OnCommit implements Policy: retire the transaction's karma.
func (k *Karma) OnCommit(age uint64) {
	for i := range k.active {
		if k.active[i].age == age {
			k.active = append(k.active[:i], k.active[i+1:]...)
			return
		}
	}
}

// NextDelay implements Policy. The caller's OnAbort immediately
// precedes this call (Manager guarantees the pairing), so exactly one
// active entry — ours — holds karma == attempt; the strongest remaining
// entry is the rival we yield to. A tied rival leaves deficit 0, i.e.
// the minimal delay.
func (k *Karma) NextDelay(attempt int, _ machine.AbortReason, r *sim.Rand) uint64 {
	rival := 0
	skippedSelf := false
	for _, e := range k.active {
		if !skippedSelf && e.karma == attempt {
			skippedSelf = true
			continue
		}
		if e.karma > rival {
			rival = e.karma
		}
	}
	deficit := rival - attempt
	if deficit < 0 {
		deficit = 0
	}
	return k.Base<<uint(clamp(deficit, k.MaxShift)) + uint64(r.Intn(int(k.Base)))
}

// SerializeOnStarvation wraps another policy and escalates once a
// transaction has aborted K consecutive times, bounding livelock: the
// starving transaction stops paying backoff and is granted exclusivity
// (software failover or the global token, per system).
type SerializeOnStarvation struct {
	Inner Policy
	K     int
}

// Name implements Policy.
func (s SerializeOnStarvation) Name() string {
	return fmt.Sprintf("serialize(%s,K=%d)", s.Inner.Name(), s.K)
}

// NextDelay implements Policy.
func (s SerializeOnStarvation) NextDelay(attempt int, reason machine.AbortReason, r *sim.Rand) uint64 {
	return s.Inner.NextDelay(attempt, reason, r)
}

// OnAbort implements Policy: detect starvation, otherwise defer to the
// inner policy.
func (s SerializeOnStarvation) OnAbort(age uint64, attempt int, reason machine.AbortReason) Escalation {
	if attempt >= s.K {
		return EscalateSerialize
	}
	return s.Inner.OnAbort(age, attempt, reason)
}

// OnCommit implements Policy.
func (s SerializeOnStarvation) OnCommit(age uint64) { s.Inner.OnCommit(age) }

// clamp bounds a shift exponent to [0, maxShift].
func clamp(n, maxShift int) int {
	if n < 0 {
		return 0
	}
	if n > maxShift {
		return maxShift
	}
	return n
}

// Kind names a policy family for Spec and the tmsim -policy flag.
type Kind string

// The selectable policy kinds.
const (
	KindExponential Kind = "exp"
	KindLinear      Kind = "linear"
	KindKarma       Kind = "karma"
	KindSerialize   Kind = "serialize"
)

// Kinds lists the -policy values in presentation order.
var Kinds = []Kind{KindExponential, KindLinear, KindKarma, KindSerialize}

// Spec is a value-type policy selection, safe to copy into every cell
// of a parallel sweep (each cell instantiates its own Policy, so no
// state is shared across machines). The zero Spec selects the paper's
// policy: CappedExponential over DefaultBase.
type Spec struct {
	// Kind selects the policy family ("" = exp).
	Kind Kind
	// Base is the backoff unit in cycles; 0 means DefaultBase.
	Base uint64
	// MaxShift bounds the exponential (and karma) shift; 0 means
	// DefaultMaxShift.
	MaxShift int
	// StarveK is the serialize kind's consecutive-abort threshold; 0
	// means DefaultStarveK.
	StarveK int
}

// ParseSpec resolves a -policy flag value.
func ParseSpec(name string) (Spec, error) {
	switch Kind(name) {
	case "", KindExponential:
		return Spec{Kind: KindExponential}, nil
	case KindLinear:
		return Spec{Kind: KindLinear}, nil
	case KindKarma:
		return Spec{Kind: KindKarma}, nil
	case KindSerialize:
		return Spec{Kind: KindSerialize}, nil
	}
	return Spec{}, fmt.Errorf("cm: unknown policy %q (want one of %v)", name, Kinds)
}

// Validate rejects nonsense knob values. Zero values are never errors —
// they select defaults.
func (s Spec) Validate() error {
	switch s.Kind {
	case "", KindExponential, KindLinear, KindKarma, KindSerialize:
	default:
		return fmt.Errorf("cm: unknown policy kind %q (want one of %v)", s.Kind, Kinds)
	}
	if s.MaxShift < 0 || s.MaxShift > 32 {
		return fmt.Errorf("cm: MaxShift %d out of range [0, 32]", s.MaxShift)
	}
	if s.StarveK < 0 {
		return fmt.Errorf("cm: StarveK %d must be >= 0", s.StarveK)
	}
	if s.Base > 1<<32 {
		return fmt.Errorf("cm: Base %d out of range [0, 2^32]", s.Base)
	}
	return nil
}

// Policy instantiates the spec. A zero Base — which would reach
// Rand.Intn(0) and panic — falls back to DefaultBase here, the single
// validation site for every system.
func (s Spec) Policy() (Policy, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	base := s.Base
	if base == 0 {
		base = DefaultBase
	}
	shift := s.MaxShift
	if shift == 0 {
		shift = DefaultMaxShift
	}
	switch s.Kind {
	case "", KindExponential:
		return CappedExponential{Base: base, MaxShift: shift}, nil
	case KindLinear:
		return Linear{Base: base, Cap: DefaultLinearCap}, nil
	case KindKarma:
		return &Karma{Base: base, MaxShift: shift}, nil
	case KindSerialize:
		k := s.StarveK
		if k == 0 {
			k = DefaultStarveK
		}
		return SerializeOnStarvation{
			Inner: CappedExponential{Base: base, MaxShift: shift},
			K:     k,
		}, nil
	}
	return nil, fmt.Errorf("cm: unknown policy kind %q", s.Kind)
}

// Stats counts the Manager's decisions for one machine run.
type Stats struct {
	Delays                uint64 // backoff delays issued
	DelayCycles           uint64 // total cycles spent in backoff
	MaxDelay              uint64 // largest single backoff
	PageFaultStalls       uint64 // page-fault resolution stalls
	RetryPolls            uint64 // emulated-retry poll sleeps
	StarvationEscalations uint64 // OnAbort verdicts that escalated
	TokenAcquisitions     uint64 // global serialization token grants
	TokenWaitCycles       uint64 // cycles spent waiting for the token
}

// Manager binds one Policy to one system instance on one machine. The
// engine's cooperative scheduler serializes every processor of a
// machine, so the Manager's state needs no locking; parallel sweep
// cells each build their own Manager from a copied Spec.
type Manager struct {
	pol   Policy
	stats Stats

	tokenHeld  bool
	tokenOwner uint64
}

// NewManager instantiates spec; a system's constructor calls it once.
// Spec errors panic: every Spec reaching a Manager comes from ParseSpec
// or a zero value, both always valid; a hand-built invalid Spec is a
// programming error.
func NewManager(spec Spec) *Manager {
	pol, err := spec.Policy()
	if err != nil {
		panic(err.Error())
	}
	return &Manager{pol: pol}
}

// PolicyName names the bound policy.
func (m *Manager) PolicyName() string { return m.pol.Name() }

// Stats exposes the decision counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// OnAbort runs the policy for one abort of the transaction with the
// given age and consecutive-abort count. On EscalateNone it charges the
// policy's backoff delay to p and returns; on escalation it charges
// nothing — the caller serializes the transaction (failover or
// AcquireToken) instead of waiting.
func (m *Manager) OnAbort(p *machine.Proc, age uint64, attempt int, reason machine.AbortReason) Escalation {
	esc := m.pol.OnAbort(age, attempt, reason)
	if esc != EscalateNone {
		m.stats.StarvationEscalations++
		return esc
	}
	d := m.pol.NextDelay(attempt, reason, p.Rand())
	m.stats.Delays++
	m.stats.DelayCycles += d
	if d > m.stats.MaxDelay {
		m.stats.MaxDelay = d
	}
	p.Elapse(d)
	p.TxLifeBackoff(d)
	return EscalateNone
}

// PageFaultStall charges the fixed fault-resolution stall (the paper's
// "resolve the fault and retry" path) — not a contention decision, so
// no policy consultation and no abort-counter advance.
func (m *Manager) PageFaultStall(p *machine.Proc) {
	m.stats.PageFaultStalls++
	p.Elapse(PageFaultStallCycles)
	p.TxLifeBackoff(PageFaultStallCycles)
}

// RetryPoll charges one poll interval of emulated transactional waiting
// (systems with no native retry support re-execute periodically).
func (m *Manager) RetryPoll(p *machine.Proc) {
	m.stats.RetryPolls++
	p.Elapse(RetryPollCycles)
}

// AcquireToken grants the global serialization token to owner, spinning
// (in simulated time) while another transaction holds it. Re-entrant
// for the current holder. Callers must release via TxDone.
func (m *Manager) AcquireToken(p *machine.Proc, owner uint64) {
	if m.tokenHeld && m.tokenOwner == owner {
		return
	}
	start := p.Now()
	for m.tokenHeld {
		p.Elapse(TokenPollCycles)
	}
	m.tokenHeld = true
	m.tokenOwner = owner
	m.stats.TokenAcquisitions++
	m.stats.TokenWaitCycles += p.Now() - start
}

// TxDone tells the Manager a transaction completed: the token is
// released if that transaction held it, and the policy retires any
// per-transaction state.
func (m *Manager) TxDone(owner uint64) {
	if m.tokenHeld && m.tokenOwner == owner {
		m.tokenHeld = false
	}
	m.pol.OnCommit(owner)
}

// Register writes the decision counters into s under cm.* (see
// OBSERVABILITY.md).
func (m *Manager) Register(s *obs.Snapshot) {
	s.AddCounter("cm.delays", "delays", "backoff delays issued by the contention-management policy", m.stats.Delays)
	s.AddCounter("cm.delay_cycles", "cycles", "total cycles spent in contention backoff", m.stats.DelayCycles)
	s.AddMaxGauge("cm.max_delay", "cycles", "largest single backoff delay issued (merges by max)", float64(m.stats.MaxDelay))
	s.AddCounter("cm.page_fault_stalls", "stalls", "page-fault resolution stalls (fixed cost, not contention)", m.stats.PageFaultStalls)
	s.AddCounter("cm.retry_polls", "polls", "emulated transactional-waiting poll sleeps", m.stats.RetryPolls)
	s.AddCounter("cm.starvation_escalations", "escalations", "aborts the policy escalated instead of backing off", m.stats.StarvationEscalations)
	s.AddCounter("cm.token_acquisitions", "grants", "global serialization token acquisitions", m.stats.TokenAcquisitions)
	s.AddCounter("cm.token_wait_cycles", "cycles", "cycles spent waiting for the serialization token", m.stats.TokenWaitCycles)
}

// Instrumented is implemented by systems that expose their Manager so
// the harness can write cm.* metrics and annotate contention
// reports.
type Instrumented interface {
	CM() *Manager
}
