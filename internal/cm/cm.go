// Package cm is the contention-management layer shared by every TM
// system in the repo. The paper fixes one policy — capped exponential
// backoff driven by a saturating abort counter (§4.4, Algorithm 3) — but
// treats the choice as a first-class design axis in its Figure 8
// sensitivity study, and later hybrid-TM work (Alistarh et al.; Brown &
// Ravi, see PAPERS.md) shows progress policy can dominate hybrid
// performance. This package therefore offers four policies, named by a Kind: how long an aborted
// transaction waits before retrying, and when it stops retrying and is
// serialized. A Manager applies one Kind for one system instance —
// every kind's delay and escalation is one switch in Manager.OnAbort —
// charges the simulated delays, and counts every decision for the
// observability layer.
//
// The zero Kind, exp, reproduces the paper's §4.4 behaviour
// cycle-for-cycle: delay = DefaultBase << min(attempt, DefaultMaxShift)
// plus one uniform jitter draw in [0, DefaultBase).
package cm

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
)

// Constants shared by every policy. DefaultBase and DefaultMaxShift are
// the paper's §4.4 constants (64-cycle unit, saturating 3-bit counter);
// DefaultStarveK is KindSerialize's starvation threshold and
// DefaultLinearCap KindLinear's largest multiple of the unit. The poll
// cycles are fixed costs that no policy varies.
const (
	DefaultBase      uint64 = 64
	DefaultMaxShift         = 7
	DefaultStarveK          = 8
	DefaultLinearCap        = 128

	// RetryPollCycles is the poll interval for emulated transactional
	// waiting in systems with no native retry support.
	RetryPollCycles uint64 = 2000
	// TokenPollCycles is the spin interval while waiting for the global
	// serialization token.
	TokenPollCycles uint64 = 100
)

// Kind names a contention-management policy: how long an aborted
// transaction waits before it retries, and when it stops retrying and is
// serialized instead. It selects the tmsim -policy flag's value; the zero
// Kind is exp, the paper's.
type Kind string

// The policy kinds.
const (
	// KindExponential is the paper's policy: DefaultBase << min(attempt,
	// DefaultMaxShift). The clamp is what the hand-rolled SLE loop lacked
	// — without it, attempt counts past 57 overflow the uint64 shift into
	// zero-or-absurd delays.
	KindExponential Kind = "exp"
	// KindLinear backs off proportionally to the attempt count:
	// DefaultBase * min(max(attempt, 1), DefaultLinearCap). Gentler than
	// exponential under moderate contention (retries stay frequent), at
	// the cost of more wasted work when contention is heavy.
	KindLinear Kind = "linear"
	// KindKarma is a Polka/Karma-style priority policy: every retrying
	// transaction's karma is its consecutive-abort count, and its backoff
	// is DefaultBase << min(deficit, DefaultMaxShift), where deficit is
	// how far the strongest rival's karma exceeds its own. A
	// long-suffering transaction therefore retries almost immediately
	// while newcomers yield — the age-based priority idea of Scherer &
	// Scott's contention managers, adapted to the simulator's
	// deterministic setting.
	KindKarma Kind = "karma"
	// KindSerialize backs off as KindExponential does, but on the
	// DefaultStarveK-th consecutive abort declares the transaction
	// starving, bounding livelock: it stops paying backoff and is granted
	// exclusivity (software failover or the global token, per system).
	KindSerialize Kind = "serialize"
)

// Kinds lists the -policy values in presentation order.
var Kinds = []Kind{KindExponential, KindLinear, KindKarma, KindSerialize}

// ParseKind resolves a -policy flag value; "" is exp.
func ParseKind(name string) (Kind, error) {
	switch k := Kind(name); k {
	case "":
		return KindExponential, nil
	case KindExponential, KindLinear, KindKarma, KindSerialize:
		return k, nil
	}
	return "", fmt.Errorf("cm: unknown policy %q (want one of %v)", name, Kinds)
}

// Stats counts the Manager's decisions for one machine run.
type Stats struct {
	Delays                uint64 // backoff delays issued
	DelayCycles           uint64 // total cycles spent in backoff
	MaxDelay              uint64 // largest single backoff
	RetryPolls            uint64 // emulated-retry poll sleeps
	StarvationEscalations uint64 // OnAbort verdicts that escalated
	TokenAcquisitions     uint64 // global serialization token grants
	TokenWaitCycles       uint64 // cycles spent waiting for the token
}

// Manager applies one Kind for one system instance on one machine. The
// engine's cooperative scheduler serializes every processor of a
// machine, so the Manager's state needs no locking; parallel sweep cells
// each build their own Manager.
type Manager struct {
	kind  Kind
	stats Stats

	// karma holds (age, karma) for the transactions retrying under
	// KindKarma. Bounded by the processor count; scanned linearly so
	// iteration order is deterministic.
	karma []karmaEntry

	tokenHeld  bool
	tokenOwner uint64
}

type karmaEntry struct {
	age   uint64
	karma int
}

// NewManager builds the manager for kind; a system's constructor calls
// it once. Every Kind reaching it comes from ParseKind, Kinds or the zero
// value, so an unknown one is a programming error and panics.
func NewManager(kind Kind) *Manager {
	k, err := ParseKind(string(kind))
	if err != nil {
		panic(err.Error())
	}
	return &Manager{kind: k}
}

// Stats exposes the decision counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// OnAbort applies the policy to one abort of the transaction with the
// given age and consecutive-abort count (attempt >= 0), and reports
// whether the transaction is starving. A starving transaction is charged
// nothing: the caller serializes it (failover or AcquireToken) instead of
// waiting. Otherwise the backoff — the kind's floor plus exactly one
// uniform jitter draw in [0, DefaultBase), so RNG streams stay aligned
// across kinds — is charged to p.
func (m *Manager) OnAbort(p *machine.Proc, age uint64, attempt int) bool {
	var floor uint64
	switch m.kind {
	case KindSerialize:
		if attempt >= DefaultStarveK {
			m.stats.StarvationEscalations++
			return true
		}
		fallthrough
	case KindExponential:
		floor = DefaultBase << min(attempt, DefaultMaxShift)
	case KindLinear:
		floor = DefaultBase * uint64(min(max(attempt, 1), DefaultLinearCap))
	case KindKarma:
		floor = DefaultBase << min(m.karmaDeficit(age, attempt), DefaultMaxShift)
	}
	d := floor + uint64(p.Rand().Intn(int(DefaultBase)))
	m.stats.Delays++
	m.stats.DelayCycles += d
	m.stats.MaxDelay = max(m.stats.MaxDelay, d)
	p.Elapse(d)
	p.TxLifeBackoff(d)
	return false
}

// karmaDeficit records attempt as the karma of the transaction with the
// given age and returns how far the strongest other retrying
// transaction's karma exceeds it; a tied or weaker rival leaves 0.
func (m *Manager) karmaDeficit(age uint64, attempt int) int {
	rival, found := 0, false
	for i := range m.karma {
		if m.karma[i].age == age {
			m.karma[i].karma, found = attempt, true
			continue
		}
		rival = max(rival, m.karma[i].karma)
	}
	if !found {
		m.karma = append(m.karma, karmaEntry{age: age, karma: attempt})
	}
	return max(rival-attempt, 0)
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
// released if that transaction held it, and its karma is retired.
func (m *Manager) TxDone(owner uint64) {
	if m.tokenHeld && m.tokenOwner == owner {
		m.tokenHeld = false
	}
	for i := range m.karma {
		if m.karma[i].age == owner {
			m.karma = append(m.karma[:i], m.karma[i+1:]...)
			return
		}
	}
}

// Register writes the decision counters into s under cm.* (see
// OBSERVABILITY.md).
func (m *Manager) Register(s *obs.Snapshot) {
	s.AddCounter("cm.delays", "delays", "backoff delays issued by the contention-management policy", m.stats.Delays)
	s.AddCounter("cm.delay_cycles", "cycles", "total cycles spent in contention backoff", m.stats.DelayCycles)
	s.AddMaxGauge("cm.max_delay", "cycles", "largest single backoff delay issued (merges by max)", float64(m.stats.MaxDelay))
	s.AddCounter("cm.retry_polls", "polls", "emulated transactional-waiting poll sleeps", m.stats.RetryPolls)
	s.AddCounter("cm.starvation_escalations", "escalations", "aborts the policy escalated instead of backing off", m.stats.StarvationEscalations)
	s.AddCounter("cm.token_acquisitions", "grants", "global serialization token acquisitions", m.stats.TokenAcquisitions)
	s.AddCounter("cm.token_wait_cycles", "cycles", "cycles spent waiting for the serialization token", m.stats.TokenWaitCycles)
}

// Instrumented is implemented by systems that expose their Manager so
// the harness can write its cm.* metrics, the one place a run's
// backoff and serialization decisions are reported.
type Instrumented interface {
	CM() *Manager
}
