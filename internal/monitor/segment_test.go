package monitor

import (
	"testing"

	"chainmon/internal/sim"
	"chainmon/internal/weaklyhard"
)

// TestObserverSeesItsVerdictCounted pins the order of the one verdict sink
// on both kinds of segment: the (m,k) counter and the stats take a
// resolution before any OnResolve observer is handed it.
func TestObserverSeesItsVerdictCounted(t *testing.T) {
	watch := func(t *testing.T, seg MonitoredSegment) *[3]int {
		var seen [3]int // by Status
		seg.OnResolve(func(r Resolution) {
			seen[r.Status]++
			n := seen[StatusOK] + seen[StatusRecovered] + seen[StatusMissed]
			execs, misses, _ := seg.Counter().Totals()
			ok, rec, miss := seg.Stats().Counts()
			if execs != uint64(n) || misses != uint64(seen[StatusMissed]) ||
				[3]int{ok, rec, miss} != seen {
				t.Errorf("activation %d %v: counter %d executions, %d misses; counts %d/%d/%d; want %v so far",
					r.Activation, r.Status, execs, misses, ok, rec, miss, seen)
			}
		})
		return &seen
	}
	recoverAct := func(act uint64) Handler {
		return func(ctx *ExceptionContext) *Recovery {
			if ctx.Activation == act {
				return &Recovery{Data: "held"}
			}
			return nil
		}
	}

	t.Run("local", func(t *testing.T) {
		r := newTestRig()
		seg := r.segment(5*sim.Millisecond, weaklyhard.Constraint{M: 2, K: 5}, recoverAct(3))
		r.costs[1] = 8 * sim.Millisecond
		r.costs[3] = 8 * sim.Millisecond
		seen := watch(t, seg)
		r.produce(5, 100*sim.Millisecond)
		r.k.Run()
		if *seen != [3]int{3, 1, 1} {
			t.Errorf("observer saw %v, want 3 ok, 1 recovered, 1 missed", *seen)
		}
	})
	t.Run("remote", func(t *testing.T) {
		r := newRemoteRig()
		m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 2, K: 5}, recoverAct(3), VariantMonitorThread)
		seen := watch(t, m)
		for _, a := range []uint64{0, 2, 4} { // 1 and 3 are lost
			r.send(a, 0)
		}
		r.k.RunUntil(sim.Time(405 * sim.Millisecond))
		if *seen != [3]int{3, 1, 1} {
			t.Errorf("observer saw %v, want 3 ok, 1 recovered, 1 missed", *seen)
		}
	})
}
