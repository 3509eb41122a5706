package obs

// SpanHopCap and HopCap expose a span's hop capacity to the external tests.
const SpanHopCap = spanHopCap

func HopCap(s *Span) int { return cap(s.hops) }
