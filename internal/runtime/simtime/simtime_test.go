package simtime

import (
	"testing"
	"time"

	rt "chainmon/internal/runtime"
	"chainmon/internal/sim"
)

func TestClockAndTimerHost(t *testing.T) {
	k := sim.NewKernel()
	c := Clock{K: k}
	h := TimerHost{K: k}

	var order []string
	h.After(5*time.Millisecond, func() { order = append(order, "after") })
	h.At(rt.Time(2*time.Millisecond.Nanoseconds()), 0, func() { order = append(order, "at") })
	cancelled := h.After(time.Millisecond, func() { order = append(order, "cancelled") })
	cancelled.Cancel()
	k.Run()

	if len(order) != 2 || order[0] != "at" || order[1] != "after" {
		t.Errorf("fire order = %v, want [at after]", order)
	}
	if got := c.Now(); got != rt.Time(5*time.Millisecond.Nanoseconds()) {
		t.Errorf("clock after run = %v", got)
	}
}

func TestExecutorStartedTime(t *testing.T) {
	k := sim.NewKernel()
	p := sim.NewProcessor(k, sim.NewRNG(1), "ecu", 1)
	th := p.NewThread("mon", 100)
	e := Executor{T: th}

	var started, direct rt.Time
	k.After(time.Millisecond, func() {
		e.Exec("work", 10*time.Microsecond, func(s rt.Time) { started = s })
		e.ExecDirect("work2", 10*time.Microsecond, func(s rt.Time) { direct = s })
	})
	k.Run()
	if started < rt.Time(time.Millisecond.Nanoseconds()) {
		t.Errorf("Exec started = %v, before enqueue time", started)
	}
	if direct < rt.Time(time.Millisecond.Nanoseconds()) {
		t.Errorf("ExecDirect started = %v, before enqueue time", direct)
	}
}

type fixedSync struct{ d sim.Duration }

func (f fixedSync) GlobalAfter(sim.Time) sim.Duration { return f.d }

func TestSyncClockForwards(t *testing.T) {
	sc := SyncClock{C: fixedSync{d: 7 * time.Millisecond}}
	if got := sc.GlobalAfter(0); got != 7*time.Millisecond {
		t.Errorf("GlobalAfter = %v", got)
	}
}

// TestTimerHostAllocs is the allocation gate of a monitor timer arm: the
// returned rt.Timer is the kernel event itself, so At and After allocate
// that event and nothing else — no handle is boxed around it.
func TestTimerHostAllocs(t *testing.T) {
	k := sim.NewKernel()
	h := TimerHost{K: k}
	fire := func() {}
	var tm rt.Timer
	if allocs := testing.AllocsPerRun(1000, func() {
		tm = h.At(rt.Time(k.Now())+1, 3, fire)
		tm.Cancel()
	}); allocs != 1 {
		t.Errorf("TimerHost.At allocates %.2f/op, want 1 (the kernel event)", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		tm = h.After(time.Millisecond, fire)
		tm.Cancel()
	}); allocs != 1 {
		t.Errorf("TimerHost.After allocates %.2f/op, want 1 (the kernel event)", allocs)
	}
}
