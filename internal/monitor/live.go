package monitor

import (
	"chainmon/internal/livestats"
	rt "chainmon/internal/runtime"
)

// AttachLive wires the local monitor and all its segments (present and
// future) to a live health set: every segment gets a latency sketch fed by
// the same resolution stream — and the same LatencySample inclusion rule —
// as SegmentStats, an (m,k) SLO sliding in lockstep with the segment's
// weakly-hard counter, and a ring-drain latency sketch fed through the
// segment's OnDrain observers, so both timebases feed it identically. A nil
// set leaves the monitor dark. The set is internally locked, so one attach
// call serves simulation and wall-clock monitors alike.
func (m *LocalMonitor) AttachLive(set *livestats.Set) {
	if set == nil {
		return
	}
	m.live = set
	for _, s := range m.segments {
		s.attachLive(set)
	}
}

func (s *LocalSegment) attachLive(set *livestats.Set) {
	scope := set.Segment(s.cfg.Name, s.cfg.Constraint)
	s.OnResolve(observeLive(scope))
	s.OnDrain(func(lat rt.Duration) { scope.ObserveDrain(float64(lat)) })
}

// AttachLiveSegment wires any monitored segment (local or remote) to the
// set; remote monitors have no runtime core, so only the resolution stream
// feeds their scope.
func AttachLiveSegment(set *livestats.Set, seg MonitoredSegment) {
	if set == nil {
		return
	}
	cfg := seg.Config()
	seg.OnResolve(observeLive(set.Segment(cfg.Name, cfg.Constraint)))
}

// observeLive feeds a scope from an in-order resolution stream. On a
// segment it runs after the segment's verdict sink updated the weakly-hard
// counter, so the scope's SLO window always matches the counter the monitor
// itself consulted.
func observeLive(scope *livestats.Scope) ResolveFunc {
	return func(r Resolution) {
		miss := r.Status == StatusMissed
		if lat, ok := r.LatencySample(); ok {
			scope.Observe(float64(lat), miss)
		} else {
			scope.Record(miss)
		}
	}
}

// AttachLive tracks the chain's end-to-end (m,k) window and the latency of
// its verdict-bearing final segment in the set. A nil set leaves the chain
// dark.
func (c *Chain) AttachLive(set *livestats.Set) {
	if set == nil {
		return
	}
	c.OnExecution(observeLive(set.Chain(c.Name, c.Constraint)))
}
