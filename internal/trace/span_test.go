package trace

import (
	"slices"
	"testing"

	"chainmon/internal/dds"
	"chainmon/internal/sim"
	"chainmon/internal/vclock"
)

// testNode builds a node on a one-ECU domain.
func testNode() (*sim.Kernel, *dds.Node) {
	k := sim.NewKernel()
	d := dds.NewDomain(k, sim.NewRNG(1))
	return k, d.NewECU("e", 1, vclock.Config{}).NewNode("n", dds.PrioExecBase)
}

func TestPointFirstPublicationWins(t *testing.T) {
	k, n := testNode()
	pub := n.NewPublisher("t")
	p := OnPublish(pub)
	k.At(10, func() { pub.Publish(3, nil, 0) })
	k.At(20, func() { pub.Publish(3, nil, 0) })
	k.At(30, func() { pub.Publish(4, nil, 0) })
	k.Run()
	if at, ok := p.First(3); !ok || at != 10 {
		t.Errorf("First(3) = %v, %v; want 10, true", at, ok)
	}
	if at, ok := (Span{From: p, To: p}).End(3); !ok || at != 10 {
		t.Errorf("a span ending at the point ends activation 3 at %v, %v; want 10, true", at, ok)
	}
	if _, ok := p.First(5); ok {
		t.Error("activation 5 was never published")
	}
	if got := p.Activations(); !slices.Equal(got, []uint64{3, 4}) {
		t.Errorf("Activations = %v, want [3 4]", got)
	}
}

// TestDeliveryPointSeesDiscardedSamples pins that a delivery point sits at
// the head of the hook chain: a hook installed before it that discards
// every sample hides nothing from it.
func TestDeliveryPointSeesDiscardedSamples(t *testing.T) {
	k, n := testNode()
	sub := n.Subscribe("t", nil, nil)
	sub.OnDeliver = append(sub.OnDeliver, func(*dds.Sample) bool { return false })
	p := OnDeliver(sub)
	k.At(7, func() { sub.DeliverLocal(&dds.Sample{Activation: 1}) })
	k.Run()
	if at, ok := p.First(1); !ok || at != 7 {
		t.Errorf("First(1) = %v, %v; want 7, true", at, ok)
	}
	if _, d := sub.Stats(); d != 1 {
		t.Errorf("discarded = %d, want 1", d)
	}
}

// TestSpanRecoveredDeliveries pins the oracle's rules for samples a
// remote-segment recovery delivered: one starts a span, and at the end
// point it taints the span without ending it.
func TestSpanRecoveredDeliveries(t *testing.T) {
	k, n := testNode()
	in, out := n.Subscribe("in", nil, nil), n.Subscribe("out", nil, nil)
	s := Span{Name: "s", From: OnDeliver(in), To: OnDeliver(out)}
	deliver := func(at sim.Time, sub *dds.Subscription, act uint64, recovered bool) {
		k.At(at, func() { sub.DeliverLocal(&dds.Sample{Activation: act, Recovered: recovered}) })
	}
	deliver(10, in, 1, true) // a recovery starts activation 1
	deliver(12, in, 1, false)
	deliver(15, out, 1, false)
	deliver(20, in, 2, false)
	deliver(22, out, 2, true) // taints activation 2, does not end it
	deliver(27, out, 2, false)
	deliver(29, out, 2, false)
	deliver(30, in, 3, false)
	deliver(33, out, 3, true) // activation 3 never ends
	k.Run()

	for _, c := range []struct {
		act     uint64
		lat     sim.Duration
		ended   bool
		tainted bool
	}{
		{1, 5, true, false},
		{2, 7, true, true},
		{3, 0, false, true},
	} {
		lat, ok := s.Latency(c.act)
		if lat != c.lat || ok != c.ended {
			t.Errorf("act %d: Latency = %v, %v; want %v, %v", c.act, lat, ok, c.lat, c.ended)
		}
		if got := s.Tainted(c.act); got != c.tainted {
			t.Errorf("act %d: Tainted = %v, want %v", c.act, got, c.tainted)
		}
	}
	if got := s.Activations(); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Errorf("Activations = %v, want [1 2 3]", got)
	}
}
