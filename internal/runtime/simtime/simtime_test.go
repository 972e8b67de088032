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
	e := NewExecutor(th)

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
// timer rides on a recycled kernel event and its handle is a value, so once
// the kernel's freelist is warm At and After allocate nothing.
func TestTimerHostAllocs(t *testing.T) {
	k := sim.NewKernel()
	h := TimerHost{K: k}
	fire := func() {}
	h.At(rt.Time(k.Now())+1, 3, fire).Cancel() // park one event on the freelist
	var tm rt.Timer
	if allocs := testing.AllocsPerRun(1000, func() {
		tm = h.At(rt.Time(k.Now())+1, 3, fire)
		tm.Cancel()
	}); allocs != 0 {
		t.Errorf("TimerHost.At allocates %.2f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		tm = h.After(time.Millisecond, fire)
		tm.Cancel()
	}); allocs != 0 {
		t.Errorf("TimerHost.After allocates %.2f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		h.After(0, fire)
		k.Run()
	}); allocs != 0 {
		t.Errorf("a fired TimerHost.After allocates %.2f/op, want 0", allocs)
	}
}

// TestExecutorAllocs is the allocation gate of a handler dispatch: with its
// dispatch records and the thread's work items warm, Exec and ExecDirect
// run fn without allocating.
func TestExecutorAllocs(t *testing.T) {
	k := sim.NewKernel()
	p := sim.NewProcessor(k, sim.NewRNG(1), "ecu", 1)
	e := NewExecutor(p.NewThread("mon", 100))
	var started rt.Time
	fn := func(s rt.Time) { started = s }
	for _, exec := range []struct {
		name string
		run  func(string, rt.Duration, func(rt.Time))
	}{{"Exec", e.Exec}, {"ExecDirect", e.ExecDirect}} {
		exec.run("warm", time.Microsecond, fn)
		k.Run()
		if allocs := testing.AllocsPerRun(1000, func() {
			exec.run("work", time.Microsecond, fn)
			k.Run()
		}); allocs != 0 {
			t.Errorf("%s allocates %.2f/op, want 0", exec.name, allocs)
		}
		if started == 0 {
			t.Errorf("%s never ran its work", exec.name)
		}
	}
}
