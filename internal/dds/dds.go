// Package dds is a data-centric publish/subscribe middleware modelled after
// the DDS middlewares ROS2 is built on (the paper uses eProsima Fast-RTPS).
// It provides domains, ECUs, nodes with single-threaded executors,
// publishers, subscriptions, and periodic sensor devices — all running in
// virtual time on the sim kernel.
//
// Samples carry the publisher's source timestamp (read from the sender's
// local PTP-synchronized clock), which is what the paper's
// synchronization-based remote monitoring interprets at the receiver.
//
// Monitors attach through three hook points that correspond exactly to the
// paper's observable communication events:
//
//   - Publisher.PrePublish — may veto a publication (the local monitor's
//     "skip next publication" propagation mechanism);
//   - Publisher.OnPublish — publication events (local segment start/end);
//   - Subscription.OnDeliver — receive events in the DDS subscriber, before
//     the application callback is dispatched (remote monitor timer
//     reprogramming, late-sample discard, local segment start/end).
//
// A *Sample is lent, as a DDS reader lends a sample to its listener: it is
// valid until the hook or callback it was handed to returns. Publication
// samples and each subscription's copy live in records the middleware
// recycles, and a record is zeroed when it is parked, so a pointer kept
// past the return reads the zero Sample — and, once the record is reused,
// a later message. Copy the fields a hook needs instead (Activation,
// Writer, the times); Data is the application's own and may be kept.
// DeliverLocal and InjectReceive copy the caller's sample before anything
// runs, so the caller's value is never handed on.
package dds

import (
	"fmt"

	"chainmon/internal/netsim"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
	"chainmon/internal/vclock"
)

// Thread priorities used across an ECU, mirroring the evaluation setup:
// the monitor thread has the highest priority, the ksoftirq threads (network
// interrupt handling) sit just below, middleware listener threads next, and
// executor threads are assigned descending priorities per process.
const (
	PrioMonitor  = 1000
	PrioKsoftirq = 900
	PrioMiddle   = 500
	PrioExecBase = 100
)

// Sample is one published message instance.
type Sample struct {
	Topic string
	// Writer identifies the publisher (DDS topic key for keyed monitors).
	Writer string
	// Activation is the chain execution index n this sample belongs to.
	// It is assigned by the application (derived from the activation of the
	// input that triggered the computation; sensor devices count their own
	// activations), so that the n-th events of all segments of a chain
	// correspond even when a publication is omitted for propagation.
	Activation uint64
	// SrcTimestamp is the sender's local clock at publication time; it is
	// transmitted with the data as in DDS.
	SrcTimestamp sim.Time
	// PubTime is the global time of publication (tracing only — a real
	// system never sees this).
	PubTime sim.Time
	// RecvTime is the global time of delivery at the subscriber, filled in
	// by the middleware before OnDeliver hooks run.
	RecvTime sim.Time
	// Size in bytes, drives transmission time.
	Size int
	// Data is the application payload.
	Data any
	// Recovered marks samples synthesized by a remote-segment recovery
	// handler (issue_receive in Algorithm 1); the remote monitor passes
	// them through without touching its expectation state.
	Recovered bool
}

func (s *Sample) String() string {
	return fmt.Sprintf("%s#%d@%v", s.Topic, s.Activation, sim.Duration(s.SrcTimestamp))
}

// Domain is the set of ECUs and the communication fabric between them.
type Domain struct {
	k   *sim.Kernel
	rng *sim.RNG

	ecus  []*ECU
	subs  map[string][]*Subscription // topic → subscriptions
	links map[linkKey]*netsim.Link

	sink       *telemetry.Sink // nil when uninstrumented
	ddsTels    map[string]*ddsTel
	flowScopes map[string]uint8 // topic → flow scope id

	// free heads the freelist of publication records not in use.
	free *publication

	// InterECU is the link configuration used when two ECUs communicate
	// and no explicit link was installed. Defaults to netsim.Ethernet().
	InterECU netsim.Config
	// Loopback is the intra-ECU link configuration.
	// Defaults to netsim.Loopback().
	Loopback netsim.Config
	// KsoftirqCost is the per-message network-stack processing cost on the
	// receiving ECU (runs at PrioKsoftirq).
	KsoftirqCost sim.Dist
	// DeliverCost is the per-message middleware processing cost at the
	// receiver (deserialization, history cache; runs at PrioMiddle).
	DeliverCost sim.Dist
}

type linkKey struct{ from, to string }

// NewDomain creates an empty domain on the kernel.
func NewDomain(k *sim.Kernel, rng *sim.RNG) *Domain {
	return &Domain{
		k:            k,
		rng:          rng.Derive("dds"),
		subs:         make(map[string][]*Subscription),
		links:        make(map[linkKey]*netsim.Link),
		InterECU:     netsim.Ethernet(),
		Loopback:     netsim.Loopback(),
		KsoftirqCost: sim.LogNormalDist{Median: 8 * sim.Microsecond, Sigma: 0.5, Shift: 2 * sim.Microsecond, Max: 200 * sim.Microsecond},
		DeliverCost:  sim.LogNormalDist{Median: 15 * sim.Microsecond, Sigma: 0.5, Shift: 5 * sim.Microsecond, Max: 500 * sim.Microsecond},
	}
}

// Kernel returns the simulation kernel.
func (d *Domain) Kernel() *sim.Kernel { return d.k }

// RNG returns the domain's random stream.
func (d *Domain) RNG() *sim.RNG { return d.rng }

// ECUs returns the registered ECUs.
func (d *Domain) ECUs() []*ECU { return d.ecus }

// ECU is one processing resource: a multicore processor with a local
// PTP-synchronized clock and the kernel threads of the receive path.
type ECU struct {
	Name   string
	Domain *Domain
	Proc   *sim.Processor
	Clock  *vclock.Clock

	// Ksoftirq handles incoming network traffic, just below the monitor
	// thread's priority as in the paper's evaluation setup.
	Ksoftirq *sim.Thread

	nodes []*Node
}

// NewECU registers a processing resource in the domain.
func (d *Domain) NewECU(name string, cores int, clockCfg vclock.Config) *ECU {
	proc := sim.NewProcessor(d.k, d.rng, name, cores)
	proc.CtxSwitch = sim.LogNormalDist{Median: 2 * sim.Microsecond, Sigma: 0.4, Max: 50 * sim.Microsecond}
	proc.Wakeup = sim.MixtureDist{
		Base:     sim.LogNormalDist{Median: 5 * sim.Microsecond, Sigma: 0.5, Shift: 1 * sim.Microsecond, Max: 100 * sim.Microsecond},
		Tail:     sim.LogNormalDist{Median: 80 * sim.Microsecond, Sigma: 0.6, Max: 2 * sim.Millisecond},
		TailProb: 0.002,
	}
	e := &ECU{
		Name:   name,
		Domain: d,
		Proc:   proc,
		Clock:  vclock.New(d.k, d.rng, name, clockCfg),
	}
	e.Ksoftirq = proc.NewThread(name+"/ksoftirq", PrioKsoftirq)
	d.ecus = append(d.ecus, e)
	return e
}

// SetLink installs an explicit unidirectional link between two ECUs (or from
// a Device's virtual ECU name).
func (d *Domain) SetLink(from, to string, cfg netsim.Config) *netsim.Link {
	l := netsim.NewLink(d.k, d.rng, from+"→"+to, cfg)
	l.AttachTelemetry(d.sink)
	d.links[linkKey{from, to}] = l
	return l
}

// Link returns the link used from one resource to another, creating it with
// the domain defaults on first use.
func (d *Domain) Link(from, to string) *netsim.Link {
	key := linkKey{from, to}
	if l, ok := d.links[key]; ok {
		return l
	}
	cfg := d.InterECU
	if from == to {
		cfg = d.Loopback
	}
	l := netsim.NewLink(d.k, d.rng, from+"→"+to, cfg)
	l.AttachTelemetry(d.sink)
	d.links[key] = l
	return l
}

// Node is a single-threaded process (a ROS node / service): an executor
// thread dispatching application callbacks plus a middleware listener
// thread handling the receive path.
type Node struct {
	Name string
	ECU  *ECU

	// Exec is the executor thread running application callbacks.
	Exec *sim.Thread
	// Middleware is the DDS listener thread (deserialization, QoS timers in
	// the unoptimized Fig. 12 variant).
	Middleware *sim.Thread
}

// NewNode creates a process on the ECU. execPrio is the executor thread
// priority (the paper assigns descending priorities per process).
func (e *ECU) NewNode(name string, execPrio int) *Node {
	n := &Node{
		Name:       name,
		ECU:        e,
		Exec:       e.Proc.NewThread(name+"/exec", execPrio),
		Middleware: e.Proc.NewThread(name+"/mw", PrioMiddle),
	}
	e.nodes = append(e.nodes, n)
	return n
}

// Nodes returns the processes on this ECU.
func (e *ECU) Nodes() []*Node { return e.nodes }

// Publisher writes samples on a topic.
type Publisher struct {
	node   *Node
	domain *Domain
	Topic  string
	Writer string

	// PrePublish hooks run before a sample is sent; if any returns false
	// the publication is skipped entirely. This is the mechanism behind
	// the local monitor's skip-next-publication propagation.
	PrePublish []func(*Sample) bool
	// OnPublish hooks observe successful publication events.
	OnPublish []func(*Sample)
	// DropOnWire hooks run after the publication event but before network
	// routing; returning true loses the sample on the wire (fault
	// injection: the publication happened, the transmission did not).
	DropOnWire []func(*Sample) bool

	published uint64
	skipped   uint64
}

// NewPublisher creates a publisher for the node.
func (n *Node) NewPublisher(topic string) *Publisher {
	return &Publisher{
		node:   n,
		domain: n.ECU.Domain,
		Topic:  topic,
		Writer: n.Name + "/" + topic,
	}
}

// Stats returns publication counters.
func (p *Publisher) Stats() (published, skipped uint64) { return p.published, p.skipped }

// Publish sends a sample for the given activation to all subscriptions of
// the topic. It must be called from simulation context (inside a work item
// or kernel event). It reports whether the sample was published: false when
// a PrePublish hook vetoed it.
func (p *Publisher) Publish(activation uint64, data any, size int) bool {
	pb := p.newPublication(activation, data, size)
	for _, hook := range p.PrePublish {
		if !hook(&pb.s) {
			p.skipped++
			if p.domain.sink != nil {
				p.domain.telSkip(p.node.ECU.Name, &pb.s)
			}
			p.domain.park(pb)
			return false
		}
	}
	p.send(pb)
	return true
}

// PublishBypass sends a sample without running PrePublish hooks. The local
// monitor uses it to publish recovery data from an exception handler: the
// recovery publication must not be vetoed by the monitor's own skip entry
// for the activation.
func (p *Publisher) PublishBypass(activation uint64, data any, size int) {
	p.send(p.newPublication(activation, data, size))
}

// newPublication takes a record for a sample published now.
func (p *Publisher) newPublication(activation uint64, data any, size int) *publication {
	pb := p.domain.take()
	pb.s = Sample{
		Topic:        p.Topic,
		Writer:       p.Writer,
		Activation:   activation,
		SrcTimestamp: p.node.ECU.Clock.Now(),
		PubTime:      p.domain.k.Now(),
		Size:         size,
		Data:         data,
	}
	return pb
}

// send runs the publication event of a sample past the veto, routes it
// unless a DropOnWire hook loses it, and parks its record.
func (p *Publisher) send(pb *publication) {
	s := &pb.s
	p.published++
	for _, hook := range p.OnPublish {
		hook(s)
	}
	if p.domain.sink != nil {
		p.domain.telSend(p.node.ECU.Name, s)
	}
	for _, hook := range p.DropOnWire {
		if hook(s) {
			p.domain.park(pb)
			return
		}
	}
	p.domain.route(p.node.ECU.Name, s)
	p.domain.park(pb)
}

// publication is one published sample on its way through the publication
// hooks and routing. Records are recycled through the domain's freelist, so
// a publication allocates nothing once the first few exist. A device also
// schedules its next publication ahead on a record: dev and the activation
// are set then, and publishFn, bound once when the record is first
// allocated, fills in the rest at publication time.
type publication struct {
	s         Sample
	dev       *Device
	next      *publication
	publishFn func()
}

// take pops a zeroed publication record off the freelist, allocating the
// first few.
func (d *Domain) take() *publication {
	pb := d.free
	if pb == nil {
		pb = &publication{}
		pb.publishFn = pb.devicePublish
		return pb
	}
	d.free = pb.next
	pb.next = nil
	return pb
}

// park zeroes a record whose publication has ended and returns it to the
// freelist.
func (d *Domain) park(pb *publication) {
	pb.s, pb.dev = Sample{}, nil
	pb.next = d.free
	d.free = pb
}

// route delivers a sample to every subscription of its topic. Each
// subscription gets its own copy, in its delivery record, so RecvTime and
// hook decisions do not leak across receivers.
func (d *Domain) route(fromECU string, s *Sample) {
	var flow uint32
	if d.sink != nil {
		flow = d.flowFor(s.Topic, s.Activation)
	}
	for _, sub := range d.subs[s.Topic] {
		link := d.Link(fromECU, sub.node.ECU.Name)
		r := sub.newDelivery(s)
		if _, r.pending = link.SendTagged(s.Size, s.Activation, flow, r.arriveFn); r.pending == 0 {
			sub.release(r) // lost on the wire
		}
	}
}

// Subscription receives samples of one topic at a node.
type Subscription struct {
	node  *Node
	Topic string

	// OnDeliver hooks run on the middleware thread when a sample arrives,
	// before the application callback is scheduled. Returning false
	// discards the sample (late messages after an exception are discarded
	// to keep the constant-rate assumption, §IV-B.3).
	OnDeliver []func(*Sample) bool

	// Callback is the application logic, dispatched on the executor.
	Callback func(*Sample)
	// Cost models the callback execution time as a function of the sample
	// (data-dependent compute). Nil means zero cost.
	Cost func(*Sample) sim.Duration
	// DeliverCost overrides the domain's middleware processing cost for
	// this subscription (deserialization and message take, which grow with
	// payload size — e.g. rviz2 taking a large point cloud). Nil uses the
	// domain default.
	DeliverCost func(*Sample) sim.Duration
	// Lifespan is the DDS lifespan QoS: samples whose source timestamp is
	// older than this (judged against the receiver's local clock) are
	// dropped before the OnDeliver hooks run. Zero disables the QoS.
	Lifespan sim.Duration

	expired uint64

	delivered uint64
	discarded uint64

	// Work-item labels of the three receive stages, built once.
	rxLabel, deliverLabel, cbLabel string
	// free heads the freelist of delivery records not in flight.
	free *delivery
}

// Subscribe registers a subscription on the topic.
func (n *Node) Subscribe(topic string, cost func(*Sample) sim.Duration, cb func(*Sample)) *Subscription {
	sub := &Subscription{
		node: n, Topic: topic, Callback: cb, Cost: cost,
		rxLabel: "rx/" + topic, deliverLabel: "deliver/" + topic, cbLabel: "cb/" + topic,
	}
	d := n.ECU.Domain
	d.subs[topic] = append(d.subs[topic], sub)
	return sub
}

// Node returns the subscribing node.
func (s *Subscription) Node() *Node { return s.node }

// Stats returns delivery counters: samples that reached the application
// callback and samples discarded by OnDeliver hooks.
func (s *Subscription) Stats() (delivered, discarded uint64) { return s.delivered, s.discarded }

// Expired returns the number of samples dropped by the lifespan QoS.
func (s *Subscription) Expired() uint64 { return s.expired }

// delivery is one in-flight receive of a sample at a subscription: it
// carries the subscription's copy of the sample. Its stage methods are the
// receive path — link arrival → ksoftirq → middleware thread → hooks →
// executor callback — bound to method values once, when the record is
// first allocated, so a delivery schedules no closures. Records are
// recycled through the subscription's freelist.
//
// pending counts the receive chains still running on the record. Each
// arrival the link scheduled holds one (two when a DupFault duplicated the
// message; both copies share the Sample, as a duplicated message always
// has) until its chain ends: after the callback, at a lifespan expiry or at
// a hook discard. The last one returns the record to the freelist.
type delivery struct {
	sub     *Subscription
	s       Sample
	pending int
	next    *delivery

	arriveFn, rxFn, deliverFn, callbackFn func()
}

// newDelivery takes a record off the freelist (allocating the first few)
// and copies sample s into it. The caller sets pending.
func (sub *Subscription) newDelivery(s *Sample) *delivery {
	r := sub.free
	if r != nil {
		sub.free = r.next
		r.next = nil
	} else {
		r = &delivery{sub: sub}
		r.arriveFn, r.rxFn, r.deliverFn, r.callbackFn = r.arrive, r.rx, r.deliver, r.callback
	}
	r.s = *s
	return r
}

// release zeroes and parks a record no chain runs on any more.
func (sub *Subscription) release(r *delivery) {
	r.s = Sample{}
	r.next = sub.free
	sub.free = r
}

// done ends one receive chain of the record.
func (r *delivery) done() {
	if r.pending--; r.pending == 0 {
		r.sub.release(r)
	} else if r.pending < 0 {
		panic("dds: delivery record released twice")
	}
}

// arrive runs when the link delivers the message: the receiving ECU's
// network stack picks it up.
func (r *delivery) arrive() {
	e := r.sub.node.ECU
	d := e.Domain
	e.Ksoftirq.Enqueue(r.sub.rxLabel, d.KsoftirqCost.Sample(d.rng), r.rxFn)
}

// rx hands the message from ksoftirq to the node's middleware thread.
func (r *delivery) rx() {
	sub := r.sub
	d := sub.node.ECU.Domain
	cost := d.DeliverCost.Sample(d.rng)
	if sub.DeliverCost != nil {
		cost = sub.DeliverCost(&r.s)
	}
	sub.node.Middleware.Enqueue(sub.deliverLabel, cost, r.deliverFn)
}

// deliver is the middleware receive: lifespan QoS, the OnDeliver hooks,
// then the callback dispatch.
func (r *delivery) deliver() {
	sub, s := r.sub, &r.s
	e := sub.node.ECU
	d := e.Domain
	s.RecvTime = d.k.Now()
	if sub.Lifespan > 0 && e.Clock.Now().Sub(s.SrcTimestamp) > sub.Lifespan {
		sub.expired++
		r.done()
		return
	}
	if d.sink != nil {
		d.telRecv(e.Name, s)
	}
	for _, hook := range sub.OnDeliver {
		if !hook(s) {
			sub.discarded++
			r.done()
			return
		}
	}
	sub.dispatch(r)
}

// callback runs the application callback on the executor.
func (r *delivery) callback() {
	if r.sub.Callback != nil {
		r.sub.Callback(&r.s)
	}
	r.done()
}

// dispatch schedules the application callback of the record's sample on
// the executor.
func (sub *Subscription) dispatch(r *delivery) {
	sub.delivered++
	var cost sim.Duration
	if sub.Cost != nil {
		cost = sub.Cost(&r.s)
	}
	sub.node.Exec.Enqueue(sub.cbLabel, cost, r.callbackFn)
}

// InjectReceive delivers a copy of a synthesized sample directly to the
// application callback, bypassing network and hooks.
func (sub *Subscription) InjectReceive(s *Sample) {
	r := sub.newDelivery(s)
	r.pending = 1
	sub.dispatch(r)
}

// DeliverLocal runs the full local delivery path (OnDeliver hooks, then the
// application callback) for a copy of a synthesized sample, without network
// or kernel receive costs. Remote-segment recovery handlers use it to issue
// the receive event with recovered data so that downstream monitors observe
// a regular start event.
func (sub *Subscription) DeliverLocal(s *Sample) {
	r := sub.newDelivery(s)
	r.pending = 1
	r.s.RecvTime = sub.node.ECU.Domain.k.Now()
	for _, hook := range sub.OnDeliver {
		if !hook(&r.s) {
			sub.discarded++
			r.done()
			return
		}
	}
	sub.dispatch(r)
}

// Device is a sensor (e.g. a lidar) that publishes a topic periodically
// from its own resource, with optional activation jitter. It owns a clock
// but no processor: sensors are fixed-function hardware.
type Device struct {
	Name   string
	Clock  *vclock.Clock
	domain *Domain
	Topic  string
	Writer string
	seq    uint64

	Period sim.Duration
	// Jitter delays each activation relative to the periodic grid (J^a).
	Jitter sim.Dist
	// Payload produces the data and size for activation n.
	Payload func(n uint64) (any, int)
	// Perturb, if set, lets experiments inject faults per activation:
	// drop suppresses the publication entirely, delay shifts it.
	Perturb func(n uint64) (drop bool, delay sim.Duration)

	// OnPublish hooks observe the device's publication events.
	OnPublish []func(*Sample)

	stopped bool
}

// NewDevice creates a periodic sensor device in the domain.
func (d *Domain) NewDevice(name, topic string, period sim.Duration, clockCfg vclock.Config) *Device {
	dev := &Device{
		Name:   name,
		Clock:  vclock.New(d.k, d.rng, name, clockCfg),
		domain: d,
		Topic:  topic,
		Writer: name + "/" + topic,
		Period: period,
		Jitter: sim.Constant(0),
	}
	return dev
}

// Start begins periodic publication at the given offset.
func (dev *Device) Start(offset sim.Time) {
	var fire func()
	grid := offset
	fire = func() {
		if dev.stopped {
			return
		}
		act := dev.seq
		dev.seq++
		j := dev.Jitter.Sample(dev.domain.rng)
		drop := false
		if dev.Perturb != nil {
			var extra sim.Duration
			drop, extra = dev.Perturb(act)
			j += extra
		}
		if !drop {
			pb := dev.domain.take()
			pb.dev, pb.s.Activation = dev, act
			dev.domain.k.At(grid.Add(j), pb.publishFn)
		}
		grid = grid.Add(dev.Period)
		dev.domain.k.At(grid, fire)
	}
	dev.domain.k.At(grid, fire)
}

// Stop halts the device after the current period.
func (dev *Device) Stop() { dev.stopped = true }

// devicePublish is a device's publication of the record's activation:
// payload, publication hooks, routing; then the record is parked.
func (pb *publication) devicePublish() {
	dev, act := pb.dev, pb.s.Activation
	d := dev.domain
	var data any
	var size int
	if dev.Payload != nil {
		data, size = dev.Payload(act)
	}
	pb.s = Sample{
		Topic:        dev.Topic,
		Writer:       dev.Writer,
		Activation:   act,
		SrcTimestamp: dev.Clock.Now(),
		PubTime:      d.k.Now(),
		Size:         size,
		Data:         data,
	}
	for _, hook := range dev.OnPublish {
		hook(&pb.s)
	}
	if d.sink != nil {
		d.telSend(dev.Name, &pb.s)
	}
	d.route(dev.Name, &pb.s)
	d.park(pb)
}
