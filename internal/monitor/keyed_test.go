package monitor

import (
	"fmt"
	"slices"
	"testing"

	"chainmon/internal/dds"
	"chainmon/internal/netsim"
	"chainmon/internal/sim"
	"chainmon/internal/vclock"
	"chainmon/internal/weaklyhard"
)

// keyedRig: two senders on different ECUs publish the same topic to one
// receiver — the multiple-communication-partners case of §IV-B.2.
type keyedRig struct {
	k        *sim.Kernel
	pubA     *dds.Publisher
	pubB     *dds.Publisher
	sub      *dds.Subscription
	lm       *LocalMonitor
	received []string
}

func newKeyedRig() *keyedRig {
	k := sim.NewKernel()
	d := dds.NewDomain(k, sim.NewRNG(5))
	d.KsoftirqCost = sim.Constant(0)
	d.DeliverCost = sim.Constant(0)
	d.InterECU = netsim.Config{BCRT: 1 * sim.Millisecond}
	ea := d.NewECU("ecu-a", 2, vclock.Config{})
	eb := d.NewECU("ecu-b", 2, vclock.Config{})
	rx := d.NewECU("ecu-rx", 2, vclock.Config{})
	for _, e := range []*dds.ECU{ea, eb, rx} {
		e.Proc.CtxSwitch = sim.Constant(0)
		e.Proc.Wakeup = sim.Constant(0)
	}
	r := &keyedRig{k: k}
	na := ea.NewNode("sender-a", dds.PrioExecBase)
	nb := eb.NewNode("sender-b", dds.PrioExecBase)
	nr := rx.NewNode("receiver", dds.PrioExecBase)
	r.pubA = na.NewPublisher("status")
	r.pubB = nb.NewPublisher("status")
	r.sub = nr.Subscribe("status", nil, func(s *dds.Sample) {
		r.received = append(r.received, s.Writer)
	})
	r.lm = NewLocalMonitor(rx)
	return r
}

func keyedCfg() SegmentConfig {
	return SegmentConfig{
		Name: "status-link", DMon: 10 * sim.Millisecond, Period: 100 * sim.Millisecond,
		Constraint:  weaklyhard.Constraint{M: 1, K: 5},
		HandlerCost: sim.Constant(5 * sim.Microsecond),
	}
}

func TestKeyedMonitorInstantiatesPerWriter(t *testing.T) {
	r := newKeyedRig()
	km := NewKeyedRemoteMonitor(r.sub, keyedCfg(), VariantMonitorThread, r.lm, nil)
	for i := 0; i < 5; i++ {
		act := uint64(i)
		r.k.At(sim.Time(i)*sim.Time(100*sim.Millisecond), func() {
			r.pubA.Publish(act, nil, 0)
			r.pubB.Publish(act, nil, 0)
		})
	}
	r.k.At(sim.Time(500*sim.Millisecond), km.Stop)
	r.k.RunUntil(sim.Time(sim.Second))

	writers := km.Writers()
	if len(writers) != 2 {
		t.Fatalf("writers = %v, want 2", writers)
	}
	for _, w := range writers {
		m := km.Monitor(w)
		if m == nil {
			t.Fatalf("no monitor for %s", w)
		}
		ok, _, miss := m.Stats().Counts()
		if ok != 5 || miss != 0 {
			t.Errorf("%s: counts ok=%d miss=%d, want 5,0", w, ok, miss)
		}
	}
	if km.Monitor("nonexistent") != nil {
		t.Error("unknown writer should be nil")
	}
}

func TestKeyedMonitorTracksWritersIndependently(t *testing.T) {
	r := newKeyedRig()
	created := map[string]bool{}
	km := NewKeyedRemoteMonitor(r.sub, keyedCfg(), VariantMonitorThread, r.lm,
		func(writer string, m *RemoteMonitor) {
			created[writer] = true
			m.SetLastActivation(5)
		})
	// Sender A loses activation 2; sender B is clean.
	for i := 0; i <= 5; i++ {
		act := uint64(i)
		r.k.At(sim.Time(i)*sim.Time(100*sim.Millisecond), func() {
			if act != 2 {
				r.pubA.Publish(act, nil, 0)
			}
			r.pubB.Publish(act, nil, 0)
		})
	}
	r.k.At(sim.Time(800*sim.Millisecond), km.Stop)
	r.k.RunUntil(sim.Time(sim.Second))

	if len(created) != 2 {
		t.Fatalf("onCreate calls = %d", len(created))
	}
	var a, b *RemoteMonitor
	for _, w := range km.Writers() {
		if created[w] {
			if km.Monitor(w).Stats().Exceptions() > 0 {
				a = km.Monitor(w)
			} else {
				b = km.Monitor(w)
			}
		}
	}
	if a == nil || b == nil {
		t.Fatalf("expected one faulty and one clean writer; writers=%v", km.Writers())
	}
	_, _, missA := a.Stats().Counts()
	if missA != 1 {
		t.Errorf("faulty writer misses = %d, want 1", missA)
	}
	_, _, missB := b.Stats().Counts()
	if missB != 0 {
		t.Errorf("clean writer misses = %d, want 0", missB)
	}
}

// TestKeyedMonitorWriterChurn staggers senders joining and leaving the
// topic: each writer's monitor must be instantiated lazily on its first
// sample (in join order), clean departures (SetLastActivation reached) must
// wind down without misses, and an abrupt departure must keep timing out
// until its bounded stream is exhausted — all while other writers are mid
// churn. The whole package runs under -race in CI, so this also shakes out
// any shared state between the per-writer monitors.
func TestKeyedMonitorWriterChurn(t *testing.T) {
	const (
		senders = 5
		lastAct = uint64(7)
		period  = 100 * sim.Millisecond
		stagger = 300 * sim.Millisecond
	)
	k := sim.NewKernel()
	d := dds.NewDomain(k, sim.NewRNG(5))
	d.KsoftirqCost = sim.Constant(0)
	d.DeliverCost = sim.Constant(0)
	d.InterECU = netsim.Config{BCRT: 1 * sim.Millisecond}
	ea := d.NewECU("ecu-a", 2, vclock.Config{})
	eb := d.NewECU("ecu-b", 2, vclock.Config{})
	rx := d.NewECU("ecu-rx", 2, vclock.Config{})
	for _, e := range []*dds.ECU{ea, eb, rx} {
		e.Proc.CtxSwitch = sim.Constant(0)
		e.Proc.Wakeup = sim.Constant(0)
	}
	sub := rx.NewNode("receiver", dds.PrioExecBase).Subscribe("status", nil, nil)
	lm := NewLocalMonitor(rx)

	var joinOrder []string
	km := NewKeyedRemoteMonitor(sub, keyedCfg(), VariantMonitorThread, lm,
		func(writer string, m *RemoteMonitor) {
			joinOrder = append(joinOrder, writer)
			m.SetLastActivation(lastAct)
		})

	pubs := make([]*dds.Publisher, senders)
	for i := 0; i < senders; i++ {
		ecu := ea
		if i%2 == 1 {
			ecu = eb
		}
		pubs[i] = ecu.NewNode(fmt.Sprintf("sender-%d", i), dds.PrioExecBase).NewPublisher("status")
		join := sim.Time(i) * sim.Time(stagger)
		for act := uint64(0); act <= lastAct; act++ {
			// The last sender departs abruptly after activation 3; the
			// rest publish their full bounded stream before leaving.
			if i == senders-1 && act > 3 {
				break
			}
			act, pub := act, pubs[i]
			k.At(join+sim.Time(act)*sim.Time(period), func() {
				pub.Publish(act, nil, 0)
			})
		}
	}
	k.At(sim.Time(5*sim.Second), km.Stop)
	k.RunUntil(sim.Time(6 * sim.Second))

	// Writer keys are node/topic pairs.
	want := make([]string, senders)
	for i := range want {
		want[i] = fmt.Sprintf("sender-%d/status", i)
	}
	if !slices.Equal(km.Writers(), want) || !slices.Equal(joinOrder, want) {
		t.Fatalf("writers = %v (created %v), want %v in join order", km.Writers(), joinOrder, want)
	}
	for i, w := range want {
		m := km.Monitor(w)
		ok, _, miss := m.Stats().Counts()
		if i == senders-1 {
			// Abrupt departure: activations 4..7 of the bounded stream
			// never arrive and must each surface as a timeout.
			if ok != 4 || miss != 4 {
				t.Errorf("%s: counts ok=%d miss=%d, want 4,4", w, ok, miss)
			}
		} else if ok != int(lastAct)+1 || miss != 0 {
			t.Errorf("%s: counts ok=%d miss=%d, want %d,0", w, ok, miss, lastAct+1)
		}
	}
}

// TestKeyedMonitorBudgetByTemplateName attaches a budget table to a
// per-writer family after writer A's monitor exists and before writer B
// joins. The family's template name is the budget identity: an update
// naming it reaches both writers' monitors, and one naming a per-writer
// monitor ("<template>@<writer>") reaches neither. Under the staged 30 ms
// each writer's activation 4, published 25 ms late, is on time.
func TestKeyedMonitorBudgetByTemplateName(t *testing.T) {
	r := newKeyedRig()
	km := NewKeyedRemoteMonitor(r.sub, keyedCfg(), VariantMonitorThread, r.lm, nil)
	tab := NewBudgetTable()
	r.k.At(sim.Time(50*sim.Millisecond), func() { km.AttachBudget(tab) })
	r.k.At(sim.Time(150*sim.Millisecond), func() {
		tab.Stage([]DeadlineUpdate{
			{Segment: "status-link@" + r.pubA.Writer, DMon: 50 * sim.Millisecond},
			{Segment: "status-link", DMon: 30 * sim.Millisecond},
			{Segment: "status-link@" + r.pubB.Writer, DMon: 50 * sim.Millisecond},
		})
	})
	for i := 0; i <= 5; i++ {
		act := uint64(i)
		at := sim.Time(i) * sim.Time(100*sim.Millisecond)
		if act == 4 {
			at = at.Add(25 * sim.Millisecond)
		}
		r.k.At(at, func() {
			r.pubA.Publish(act, nil, 0)
			if act >= 2 {
				r.pubB.Publish(act, nil, 0)
			}
		})
	}
	r.k.At(sim.Time(550*sim.Millisecond), km.Stop)
	r.k.RunUntil(sim.Time(sim.Second))

	if !slices.Equal(km.Writers(), []string{r.pubA.Writer, r.pubB.Writer}) {
		t.Fatalf("writers = %v, want A then B", km.Writers())
	}
	for _, w := range km.Writers() {
		m := km.Monitor(w)
		if got := m.Config().DMon; got != 30*sim.Millisecond {
			t.Errorf("%s: DMon %v, want the template's 30ms", m.Config().Name, got)
		}
		if ok, _, miss := m.Stats().Counts(); miss != 0 {
			t.Errorf("%s: ok=%d missed=%d, want no miss under 30ms", m.Config().Name, ok, miss)
		}
	}
	if got := tab.AppliedEpoch(); got != 1 {
		t.Errorf("applied epoch %d, want 1", got)
	}
}

func TestKeyedMonitorValidation(t *testing.T) {
	r := newKeyedRig()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewKeyedRemoteMonitor(r.sub, SegmentConfig{Name: "bad"}, VariantMonitorThread, r.lm, nil)
}
