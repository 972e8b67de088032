package monitor

import (
	"sync"
	"sync/atomic"

	rt "chainmon/internal/runtime"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
)

// DeadlineUpdate retimes one segment's monitored deadline d_mon. The
// exception budget d_ex is a solver constant, so the segment deadline
// d = d_mon + d_ex moves with d_mon.
type DeadlineUpdate struct {
	Segment string
	DMon    sim.Duration
}

// budgetVersion is one immutable snapshot of the staged budget table. Each
// version carries the FULL set of staged deadlines (not a delta), so a
// monitor that slept through intermediate epochs converges to the current
// table from whichever version it loads next.
type budgetVersion struct {
	epoch   uint64
	updates []DeadlineUpdate
}

// BudgetTable is the versioned, hot-swappable source of per-segment
// monitored deadlines. The adaptive controller (or a test) stages new
// deadlines; monitors apply them on their own execution contexts — the
// local monitor at the top of a scan pass, the remote monitor at the top
// of its delivery/timeout handlers — so in-flight activations always
// finish under the deadline they were armed with (the swap barrier).
//
// The staged side is mutex-serialized; the monitor side is one atomic
// pointer load plus an epoch compare per pass, allocation-free, with no
// locks on the hot path.
type BudgetTable struct {
	mu      sync.Mutex
	epoch   uint64
	current map[string]sim.Duration
	order   []string // deterministic update order: first-staged first
	wakers  []func()

	version atomic.Pointer[budgetVersion]
	applied atomic.Uint64
}

// NewBudgetTable creates an empty table at epoch 0 (monitors keep their
// construction-time deadlines until the first Stage).
func NewBudgetTable() *BudgetTable {
	return &BudgetTable{current: make(map[string]sim.Duration)}
}

// Stage publishes a new budget version containing the given retimings (on
// top of everything staged before) and returns its epoch. Registered
// monitor wakers are kicked so wall-clock scan loops pick the version up
// promptly; on the sim timebase the kick enqueues a deterministic scan
// work item. Updates with a non-positive deadline are ignored — a budget
// can shrink, never vanish.
func (t *BudgetTable) Stage(updates []DeadlineUpdate) uint64 {
	t.mu.Lock()
	for _, u := range updates {
		if u.DMon <= 0 {
			continue
		}
		if _, ok := t.current[u.Segment]; !ok {
			t.order = append(t.order, u.Segment)
		}
		t.current[u.Segment] = u.DMon
	}
	t.epoch++
	v := &budgetVersion{epoch: t.epoch, updates: make([]DeadlineUpdate, 0, len(t.order))}
	for _, name := range t.order {
		v.updates = append(v.updates, DeadlineUpdate{Segment: name, DMon: t.current[name]})
	}
	t.version.Store(v)
	wakers := t.wakers
	t.mu.Unlock()
	for _, w := range wakers {
		w()
	}
	return v.epoch
}

// Epoch returns the most recently staged epoch (0 = nothing staged).
func (t *BudgetTable) Epoch() uint64 {
	if v := t.version.Load(); v != nil {
		return v.epoch
	}
	return 0
}

// AppliedEpoch returns the highest epoch any attached monitor has applied.
func (t *BudgetTable) AppliedEpoch() uint64 { return t.applied.Load() }

// Deadlines returns a copy of the currently staged per-segment deadlines.
func (t *BudgetTable) Deadlines() map[string]sim.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]sim.Duration, len(t.current))
	for name, d := range t.current {
		out[name] = d
	}
	return out
}

// RegisterWaker adds a monitor wake callback invoked after every Stage.
func (t *BudgetTable) RegisterWaker(fn func()) {
	if fn == nil {
		return
	}
	t.mu.Lock()
	t.wakers = append(t.wakers, fn)
	t.mu.Unlock()
}

func (t *BudgetTable) load() *budgetVersion { return t.version.Load() }

func (t *BudgetTable) markApplied(epoch uint64) {
	for {
		cur := t.applied.Load()
		if cur >= epoch || t.applied.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// budgetBinding is one monitor's subscription to a table: the last epoch
// this monitor applied, so a scan pass is a pointer load and a compare.
type budgetBinding struct {
	table *BudgetTable
	seen  uint64
}

// AttachBudget subscribes the local monitor to a budget table. Staged
// deadlines are applied at the top of scan passes — on the scan thread,
// amortized, before the core drains — so every activation drained
// afterwards is armed under the new deadline while in-flight ones keep
// theirs (the barrier of runtime.Core.SetDeadline). A monitor can serve
// several chains and therefore several tables.
func (m *LocalMonitor) AttachBudget(t *BudgetTable) {
	if t == nil {
		return
	}
	for _, b := range m.budgets {
		if b.table == t {
			return
		}
	}
	m.budgets = append(m.budgets, budgetBinding{table: t})
	t.RegisterWaker(m.sched.ForceWake)
}

// applyBudgets folds any newly staged budget versions into the monitor's
// segments. Runs on the scan thread; allocation-free (atomic load, epoch
// compare, and a pair of small nested loops over live segments).
func (m *LocalMonitor) applyBudgets(now rt.Time) {
	for i := range m.budgets {
		b := &m.budgets[i]
		v := b.table.load()
		if v == nil || v.epoch == b.seen {
			continue
		}
		for _, u := range v.updates {
			for _, s := range m.segments {
				if s.cfg.Name == u.Segment && s.cfg.DMon != u.DMon {
					s.cfg.DMon = u.DMon
					m.core.SetDeadline(s.core, rt.Duration(u.DMon))
					// Record the swap on the monitor track so offline
					// consumers (the blame engine's epoch accounting) see
					// deadline changes in order with the arms they retime,
					// whether the swap came from the adaptive controller or
					// a scripted actuation.
					if m.tel != nil && s.tel != nil {
						m.tel.track.Append(telemetry.Event{
							TS: int64(now), Act: v.epoch, Arg: int64(u.DMon),
							Kind: telemetry.KindBudgetSwap, Label: s.tel.label,
						})
					}
				}
			}
		}
		b.seen = v.epoch
		b.table.markApplied(v.epoch)
	}
}

// AttachBudget subscribes the remote monitor to a budget table. Staged
// deadlines are applied at the top of the delivery and timeout handlers,
// before the next local deadline is derived — the armed timer for the
// currently expected activation is left untouched, which is exactly the
// swap barrier: the in-flight activation finishes under the deadline it
// started with, and every activation armed after the swap uses the new
// one, whether its deadline comes from a source timestamp or, during an
// outage, from the previous deadline plus the period.
func (m *RemoteMonitor) AttachBudget(t *BudgetTable) {
	if t == nil {
		return
	}
	m.budget = t
	if m.budgetName == "" {
		m.budgetName = m.cfg.Name
	}
}

func (m *RemoteMonitor) applyBudget() {
	if m.budget == nil {
		return
	}
	v := m.budget.load()
	if v == nil || v.epoch == m.budgetSeen {
		return
	}
	for _, u := range v.updates {
		if u.Segment == m.budgetName {
			// The recurrence that derives the next deadline from this one
			// moves with d_mon; the armed timer keeps its own.
			m.deadlineLocal = m.deadlineLocal.Add(u.DMon - m.cfg.DMon)
			m.cfg.DMon = u.DMon
		}
	}
	m.budgetSeen = v.epoch
	m.budget.markApplied(v.epoch)
}

// AttachBudget subscribes the whole per-writer monitor family to a table.
// Existing and future per-writer monitors match updates against the family
// template name (the writer suffix is a routing detail, not a budget
// identity).
func (km *KeyedRemoteMonitor) AttachBudget(t *BudgetTable) {
	if t == nil {
		return
	}
	km.budget = t
	for _, m := range km.monitors {
		m.budgetName = km.cfg.Name
		m.AttachBudget(t)
	}
}
