package trace

import (
	"slices"

	"chainmon/internal/dds"
	"chainmon/internal/sim"
)

// Point is the first time, per activation, of one event: a publisher's or a
// device's publication, or a subscription's raw delivery. The times are the
// global kernel times the samples carry (PubTime, RecvTime), which no
// monitor ever sees.
type Point struct {
	marks map[uint64]mark
}

// mark is what a point holds for one activation.
type mark struct {
	first sim.Time // first occurrence
	real  sim.Time // first occurrence with a sample that was not recovered
	// hasReal reports whether real is set; recovered, whether a recovered
	// sample was delivered.
	hasReal, recovered bool
}

func newPoint() *Point { return &Point{marks: make(map[uint64]mark)} }

// OnPublish hooks a point on the publisher's publications.
func OnPublish(pub *dds.Publisher) *Point {
	p := newPoint()
	pub.OnPublish = append(pub.OnPublish, func(s *dds.Sample) { p.note(s.Activation, s.PubTime, false) })
	return p
}

// OnDevicePublish hooks a point on a sensor device's publications.
func OnDevicePublish(dev *dds.Device) *Point {
	p := newPoint()
	dev.OnPublish = append(dev.OnPublish, func(s *dds.Sample) { p.note(s.Activation, s.PubTime, false) })
	return p
}

// OnDeliver hooks a point at the head of the subscription's OnDeliver chain,
// so no monitor hook installed before it can discard a reception unseen. A
// sample a remote-segment recovery delivered (dds.Sample.Recovered) counts
// as an occurrence, but not as an arrival (see Span).
func OnDeliver(sub *dds.Subscription) *Point {
	p := newPoint()
	head := func(s *dds.Sample) bool { p.note(s.Activation, s.RecvTime, s.Recovered); return true }
	sub.OnDeliver = append([]func(*dds.Sample) bool{head}, sub.OnDeliver...)
	return p
}

func (p *Point) note(act uint64, at sim.Time, recovered bool) {
	m, seen := p.marks[act]
	if !seen {
		m.first = at
	}
	if recovered {
		m.recovered = true
	} else if !m.hasReal {
		m.real, m.hasReal = at, true
	}
	p.marks[act] = m
}

// First returns the time the event first happened for the activation.
func (p *Point) First(act uint64) (sim.Time, bool) {
	m, ok := p.marks[act]
	return m.first, ok
}

// Activations returns the activations the event happened for, ascending.
func (p *Point) Activations() []uint64 {
	acts := make([]uint64, 0, len(p.marks))
	for a := range p.marks {
		acts = append(acts, a)
	}
	slices.Sort(acts)
	return acts
}

// Span is the ground truth of one segment (or chain): per activation, the
// latency from the event at From to the event at To.
//
// A recovered delivery starts a span: the segment's computation genuinely
// begins with the substitute data, and the monitor posts a start event for
// it too. At the end point it is no arrival: it taints the activation,
// whose latency truth is unknown once a recovery was injected, and the span
// ends at the first delivery that was not recovered.
type Span struct {
	Name     string
	From, To *Point
}

// Start returns when the activation started.
func (s Span) Start(act uint64) (sim.Time, bool) { return s.From.First(act) }

// End returns when the activation ended.
func (s Span) End(act uint64) (sim.Time, bool) {
	m := s.To.marks[act]
	return m.real, m.hasReal
}

// Tainted reports whether a recovered sample was delivered at the end point.
func (s Span) Tainted(act uint64) bool { return s.To.marks[act].recovered }

// Latency returns the activation's latency when it started and ended, the
// end no earlier than the start.
func (s Span) Latency(act uint64) (sim.Duration, bool) {
	start, okS := s.Start(act)
	end, okE := s.End(act)
	if !okS || !okE || end < start {
		return 0, false
	}
	return end.Sub(start), true
}

// Activations returns the activations that started, ascending.
func (s Span) Activations() []uint64 { return s.From.Activations() }
