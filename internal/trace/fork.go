package trace

import "maps"

// Clone returns an independent copy of the log: every chunk is copied, so
// either side may keep adding records. Nil clones to nil, matching the
// nil-safe accessors: a world without tracing forks to a world without
// tracing.
func (l *Log) Clone() *Log {
	if l == nil {
		return nil
	}
	c := &Log{
		chunks: make([]*[chunkLen]record, len(l.chunks)),
		n:      l.n,
		names:  append([]string(nil), l.names...),
		index:  maps.Clone(l.index),
		last:   l.last,
	}
	for i, ch := range l.chunks {
		c.chunks[i] = new([chunkLen]record)
		*c.chunks[i] = *ch
	}
	return c
}
