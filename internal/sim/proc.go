package sim

import "fmt"

// WorkItem is a unit of computation queued on a Thread: it occupies the
// thread for Cost of virtual CPU time and then runs Fn (the item's effects:
// publishing messages, programming timers, ...).
//
// Items are recycled through an intrusive per-thread freelist: once an item
// completes (after its Fn returned) it is returned to its thread and the
// next Enqueue reuses it, so steady-state enqueueing does not touch the
// heap. The handle returned by Enqueue/EnqueueDirect is therefore only
// valid until the item's Fn returns: read its latency bookkeeping from Fn,
// as a kernel event's handle is stale once the event fired.
type WorkItem struct {
	Label string
	Cost  Duration
	Fn    func()

	// t is the owning thread; items never migrate between freelists, so the
	// pre-bound wake callback stays valid across recycles.
	t *Thread
	// next links the item into the thread freelist while parked.
	next *WorkItem
	// wakeFn is the bound (*WorkItem).wake method value, created once when
	// the item is first allocated — the wakeup scheduling of Enqueue reuses
	// it instead of closing over the item on every call.
	wakeFn EventFunc

	enqueued   Time // when Enqueue was called
	ready      Time // when the wakeup latency elapsed and the item became runnable
	started    Time // first dispatch on a core
	finished   Time
	preemptCnt int
	inFree     bool
}

// Enqueued returns the time Enqueue was called for this item.
func (w *WorkItem) Enqueued() Time { return w.enqueued }

// Started returns the time the item was first dispatched on a core.
func (w *WorkItem) Started() Time { return w.started }

// Finished returns the item's completion time.
func (w *WorkItem) Finished() Time { return w.finished }

// Preemptions returns how often the item was preempted.
func (w *WorkItem) Preemptions() int { return w.preemptCnt }

// Thread is a schedulable entity with a fixed priority and a FIFO queue of
// work items. Higher Priority values take precedence.
type Thread struct {
	proc     *Processor
	Name     string
	Priority int
	// pinned is the core this thread is restricted to, or -1 for global
	// scheduling (free migration, the paper's evaluation setup).
	pinned int

	queue      []*WorkItem
	current    *WorkItem
	remaining  Duration
	running    bool
	blocked    bool // suspended outside the scheduler (fault injection)
	shouldRun  bool // scratch of Processor.reschedule, meaningless outside it
	dispatched Time // when the thread last got a core
	readySince Time
	completion *Event
	// completeFn is the bound t.complete method value, created once so
	// every dispatch does not allocate a fresh closure.
	completeFn EventFunc
	// free heads the intrusive freelist of recycled work items; freeLen
	// mirrors its length for allocation assertions in tests.
	free    *WorkItem
	freeLen int

	busy      Duration // accumulated executed CPU time
	completed uint64
}

// Processor models one ECU: a set of identical cores scheduling threads with
// global fixed-priority preemptive scheduling (threads migrate freely, as in
// the paper's evaluation setup).
type Processor struct {
	Name  string
	Cores int

	k   *Kernel
	rng *RNG

	// CtxSwitch is added to an item's remaining cost on every dispatch,
	// modelling context-switch and cache-refill overhead.
	CtxSwitch Dist
	// Wakeup is the latency between enqueueing a work item and the thread
	// becoming ready (kernel wakeup latency). On a PREEMPT_RT system this
	// is small with rare outliers.
	Wakeup Dist

	threads []*Thread
	// ready and coreTaken are reschedule scratch, reused across calls so the
	// scheduler itself never allocates. reschedule runs no user code, so the
	// buffers cannot be re-entered.
	ready     []*Thread
	coreTaken []bool
}

// NewProcessor creates a processor with the given core count. The overhead
// distributions default to zero and can be assigned afterwards.
func NewProcessor(k *Kernel, rng *RNG, name string, cores int) *Processor {
	if cores < 1 {
		panic("sim: processor needs at least one core")
	}
	return &Processor{
		Name:      name,
		Cores:     cores,
		k:         k,
		rng:       rng.Derive("proc/" + name),
		CtxSwitch: Constant(0),
		Wakeup:    Constant(0),
	}
}

// Kernel returns the simulation kernel this processor runs on.
func (p *Processor) Kernel() *Kernel { return p.k }

// RNG returns the processor's random stream.
func (p *Processor) RNG() *RNG { return p.rng }

// NewThread registers a thread on this processor.
func (p *Processor) NewThread(name string, priority int) *Thread {
	t := &Thread{proc: p, Name: name, Priority: priority, pinned: -1}
	t.completeFn = t.complete
	p.threads = append(p.threads, t)
	return t
}

// PinTo restricts the thread to one core (partitioned scheduling). Passing
// a negative core restores free migration.
func (t *Thread) PinTo(core int) {
	if core >= t.proc.Cores {
		panic(fmt.Sprintf("sim: pinning %q to core %d of %d", t.Name, core, t.proc.Cores))
	}
	if core < 0 {
		core = -1
	}
	t.pinned = core
}

// Pinned returns the core the thread is pinned to, or -1.
func (t *Thread) Pinned() int { return t.pinned }

// Threads returns the registered threads.
func (p *Processor) Threads() []*Thread { return p.threads }

// Utilization returns the fraction of total core time spent busy up to now.
func (p *Processor) Utilization() float64 {
	if p.k.Now() == 0 {
		return 0
	}
	var busy Duration
	for _, t := range p.threads {
		busy += t.BusyTime()
	}
	return float64(busy) / (float64(p.k.Now()) * float64(p.Cores))
}

// newItem is the single work-item constructor behind Enqueue and
// EnqueueDirect: it pops a recycled item off the thread freelist (or heap-
// allocates the first few laps) and initializes every field both entry
// points share, so the two paths cannot drift apart.
func (t *Thread) newItem(label string, cost Duration, fn func()) *WorkItem {
	if cost < 0 {
		panic(fmt.Sprintf("sim: negative cost %v for %q", cost, label))
	}
	w := t.free
	if w != nil {
		t.free = w.next
		t.freeLen--
		w.next = nil
		w.inFree = false
		w.Label, w.Cost, w.Fn = label, cost, fn
		w.ready, w.started, w.finished = 0, 0, 0
		w.preemptCnt = 0
	} else {
		w = &WorkItem{t: t, Label: label, Cost: cost, Fn: fn}
		w.wakeFn = w.wake
	}
	w.enqueued = t.proc.k.Now()
	return w
}

// releaseItem parks a completed item on the thread freelist. The stale Fn
// and Label are cleared so a recycled slot can never run or report a
// previous item's work.
func (t *Thread) releaseItem(w *WorkItem) {
	if w.inFree {
		return
	}
	w.Fn = nil
	w.Label = ""
	w.inFree = true
	w.next = t.free
	t.free = w
	t.freeLen++
}

// FreeItems returns the number of work items parked on the freelist, for
// allocation assertions in tests.
func (t *Thread) FreeItems() int { return t.freeLen }

// wake makes the item runnable after the wakeup latency elapsed. It is
// scheduled through the pre-bound wakeFn, so enqueueing does not allocate a
// closure per item.
func (w *WorkItem) wake() {
	t := w.t
	w.ready = t.proc.k.Now()
	if len(t.queue) == 0 && t.current == nil {
		t.readySince = w.ready
	}
	t.queue = append(t.queue, w)
	t.proc.reschedule()
}

// Enqueue schedules a work item on the thread. The item becomes runnable
// after the processor's wakeup latency and then competes for a core at the
// thread's priority. The returned handle is valid until the item's Fn
// returns.
func (t *Thread) Enqueue(label string, cost Duration, fn func()) *WorkItem {
	w := t.newItem(label, cost, fn)
	wake := t.proc.Wakeup.Sample(t.proc.rng)
	t.proc.k.After(wake, w.wakeFn)
	return w
}

// EnqueueDirect schedules a work item without the wakeup latency: the item
// becomes runnable immediately. Use it for work a thread queues onto itself
// (it is already awake), e.g. the monitor thread dispatching exception
// handlers it will execute next. The handle contract matches Enqueue.
func (t *Thread) EnqueueDirect(label string, cost Duration, fn func()) *WorkItem {
	w := t.newItem(label, cost, fn)
	w.ready = w.enqueued
	if len(t.queue) == 0 && t.current == nil {
		t.readySince = w.ready
	}
	t.queue = append(t.queue, w)
	t.proc.reschedule()
	return w
}

// QueueLen returns the number of runnable-but-not-started items.
func (t *Thread) QueueLen() int { return len(t.queue) }

// Busy reports whether the thread currently holds a work item.
func (t *Thread) Busy() bool { return t.current != nil || len(t.queue) > 0 }

// BusyTime returns the accumulated CPU time consumed by the thread.
func (t *Thread) BusyTime() Duration {
	b := t.busy
	if t.running {
		b += t.proc.k.Now().Sub(t.dispatched)
	}
	return b
}

// Completed returns the number of finished work items.
func (t *Thread) Completed() uint64 { return t.completed }

// Block suspends the thread: it stops competing for cores until Unblock,
// while its queue keeps accumulating work. This models a thread stuck in a
// blocking call (a lost lock, a hung I/O operation) — it consumes no CPU,
// so the rest of the processor stays schedulable. An item in flight is
// preempted and resumes where it left off on Unblock.
func (t *Thread) Block() {
	if t.blocked {
		return
	}
	t.blocked = true
	t.proc.reschedule()
}

// Unblock resumes a blocked thread; pending work competes for a core again
// from now.
func (t *Thread) Unblock() {
	if !t.blocked {
		return
	}
	t.blocked = false
	if t.current != nil || len(t.queue) > 0 {
		t.readySince = t.proc.k.Now()
	}
	t.proc.reschedule()
}

// Blocked reports whether the thread is currently suspended.
func (t *Thread) Blocked() bool { return t.blocked }

func (t *Thread) ready() bool {
	return !t.blocked && (t.current != nil || len(t.queue) > 0)
}

// reschedule recomputes the running set after any arrival or completion.
// Pinned threads win their own core against other threads pinned there;
// unpinned threads share the remaining cores by global fixed priority.
func (p *Processor) reschedule() {
	now := p.k.Now()

	ready := p.ready[:0]
	for _, t := range p.threads {
		t.shouldRun = false
		if t.ready() {
			ready = append(ready, t)
		}
	}
	// Stable insertion sort by priority (desc), then readySince (asc):
	// registration order breaks remaining ties, exactly as sort.SliceStable
	// did, so scheduling decisions — and every golden — are unchanged.
	for i := 1; i < len(ready); i++ {
		t := ready[i]
		j := i - 1
		for j >= 0 && (ready[j].Priority < t.Priority ||
			(ready[j].Priority == t.Priority && ready[j].readySince > t.readySince)) {
			ready[j+1] = ready[j]
			j--
		}
		ready[j+1] = t
	}
	p.ready = ready

	if p.coreTaken == nil {
		p.coreTaken = make([]bool, p.Cores)
	}
	coreTaken := p.coreTaken
	for i := range coreTaken {
		coreTaken[i] = false
	}
	taken := 0
	// Pinned threads first: the highest-priority ready thread of each
	// core (ready is priority-sorted).
	for _, t := range ready {
		if t.pinned >= 0 && !coreTaken[t.pinned] {
			coreTaken[t.pinned] = true
			t.shouldRun = true
			taken++
		}
	}
	// Unpinned threads fill the remaining cores by global priority.
	for _, t := range ready {
		if taken >= p.Cores {
			break
		}
		if t.pinned < 0 && !t.shouldRun {
			t.shouldRun = true
			taken++
		}
	}

	// Preempt threads that lost their core.
	for _, t := range p.threads {
		if t.running && !t.shouldRun {
			t.preempt(now)
		}
	}
	// Dispatch threads that gained a core.
	for _, t := range ready {
		if t.shouldRun && !t.running {
			t.dispatch(now)
		}
	}
	// Drop scratch references so completed threads' items stay collectable
	// between reschedules.
	for i := range ready {
		ready[i] = nil
	}
}

func (t *Thread) preempt(now Time) {
	if t.completion != nil {
		t.proc.k.cancel(t.completion)
		t.completion = nil
	}
	consumed := now.Sub(t.dispatched)
	t.busy += consumed
	t.remaining -= consumed
	if t.remaining < 0 {
		t.remaining = 0
	}
	t.running = false
	if t.current != nil {
		t.current.preemptCnt++
	}
}

func (t *Thread) dispatch(now Time) {
	if t.current == nil {
		t.current = t.queue[0]
		copy(t.queue, t.queue[1:])
		t.queue[len(t.queue)-1] = nil
		t.queue = t.queue[:len(t.queue)-1]
		t.remaining = t.current.Cost
		t.current.started = now
	}
	// Context-switch overhead on every dispatch (initial or resume).
	t.remaining += t.proc.CtxSwitch.Sample(t.proc.rng)
	t.running = true
	t.dispatched = now
	// t.completion is nil'd in both complete() and preempt() before the
	// event can be recycled, so while set it is pending.
	t.completion = t.proc.k.AtPriority(now.Add(t.remaining), t.Priority, t.completeFn)
}

func (t *Thread) complete() {
	now := t.proc.k.Now()
	t.busy += now.Sub(t.dispatched)
	t.running = false
	t.completion = nil
	w := t.current
	t.current = nil
	t.remaining = 0
	t.completed++
	w.finished = now
	if len(t.queue) > 0 {
		t.readySince = now
	}
	if w.Fn != nil {
		w.Fn()
	}
	// Recycle after Fn returned (callbacks may read the item's timestamps
	// while running) and before rescheduling — Fn may have enqueued new
	// work, which pops from the freelist, never aliasing w since w is only
	// parked here.
	t.releaseItem(w)
	t.proc.reschedule()
}

// PeriodicLoad drives a thread with periodic background work, used to model
// interfering services and load sweeps (Fig. 12). It starts at the given
// offset and re-arms itself every period.
func (p *Processor) PeriodicLoad(t *Thread, label string, offset Time, period Duration, cost Dist) {
	p.PeriodicLoadWindow(t, label, offset, MaxTime, period, cost)
}

// PeriodicLoadWindow drives a thread with periodic background work only
// inside the [from, until) virtual-time window, used to model transient
// interference (fault injection: an ECU overloaded by a misbehaving
// service for a bounded interval).
func (p *Processor) PeriodicLoadWindow(t *Thread, label string, from, until Time, period Duration, cost Dist) {
	if until <= from {
		return
	}
	var arm func()
	arm = func() {
		if p.k.Now() >= until {
			return
		}
		t.Enqueue(label, cost.Sample(p.rng), nil)
		p.k.After(period, arm)
	}
	p.k.At(from, arm)
}
