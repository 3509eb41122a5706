package trace

// Clone returns an independent copy of the log. Nil clones to nil, matching
// the nil-safe accessors: a world without tracing forks to a world without
// tracing.
func (l *Log) Clone() *Log {
	if l == nil {
		return nil
	}
	return &Log{events: append([]Event(nil), l.events...)}
}
