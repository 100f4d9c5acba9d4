package machine

// eventLog is the recording observer this package's tests subscribe:
// append-only, every event kept in the order the machine emitted it.
// (Other packages' tests use tmtest.EventLog, which this package cannot
// import.)
type eventLog struct{ events []TraceEvent }

func (l *eventLog) Event(e TraceEvent) { l.events = append(l.events, e) }

// observe subscribes a new eventLog to kinds on m.
func observe(m *Machine, kinds Kinds) *eventLog {
	l := new(eventLog)
	m.Observe(kinds, l)
	return l
}
