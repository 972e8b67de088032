// Package chainmon is an online latency monitor for time-sensitive event
// chains in safety-critical, middleware-centric systems — a from-scratch Go
// reproduction of "Online latency monitoring of time-sensitive event chains
// in safety-critical applications" (Peeck, Schlatow, Ernst; DATE 2021).
//
// An event chain (sensor → fusion → classification → detection → planning)
// carries a weakly-hard end-to-end latency requirement: its budget B_e2e
// may be exceeded at most m times in any k consecutive executions. The
// chain is split into alternating local segments (receive event →
// publication event on one ECU, possibly across several processes) and
// remote segments (publication → reception on another ECU). Each segment is
// monitored decentrally:
//
//   - local segments through shared-memory event rings drained by a
//     high-priority monitor thread with a timeout queue (LocalMonitor);
//   - remote segments at the receiver by interpreting the transmitted
//     source timestamps of PTP-synchronized senders (RemoteMonitor) — the
//     paper shows plain inter-arrival supervision (InterArrivalMonitor)
//     cannot detect consecutive misses.
//
// When a segment's end event does not occur within its monitored deadline
// d_mon, a temporal exception is raised; the application handler either
// recovers with substitute data or the miss propagates along the chain so
// the per-segment (m,k) accounting stays sound end to end. Segment
// deadlines are determined offline from recorded traces by the budget
// package's constraint-satisfaction solvers (Eqs. 2–7 of the paper).
//
// The package re-exports the public surface of the internal packages:
//
//   - the deterministic simulation substrate (Kernel, Processor, Domain,
//     ECU, Node, Publisher, Subscription, Device);
//   - the monitoring core (LocalMonitor, RemoteMonitor, Chain, Handler);
//   - weakly-hard constraint algebra and the budgeting solvers;
//   - trace recording and the perception use case of the paper.
//
// See examples/quickstart for a minimal monitored chain and
// cmd/experiments for the full reproduction of the paper's evaluation.
package chainmon

import (
	"chainmon/internal/budget"
	"chainmon/internal/dds"
	"chainmon/internal/lidar"
	"chainmon/internal/monitor"
	"chainmon/internal/netsim"
	"chainmon/internal/perception"
	"chainmon/internal/realtime"
	"chainmon/internal/rta"
	"chainmon/internal/sim"
	"chainmon/internal/stats"
	"chainmon/internal/telemetry"
	"chainmon/internal/trace"
	"chainmon/internal/vclock"
	"chainmon/internal/weaklyhard"
)

// Simulation substrate.
type (
	// Kernel is the deterministic discrete-event simulation core.
	Kernel = sim.Kernel
	// Time is a point in virtual time (nanoseconds).
	Time = sim.Time
	// Duration is a span of virtual time (time.Duration).
	Duration = sim.Duration
	// RNG is a deterministic per-component random stream.
	RNG = sim.RNG
	// Dist is a duration distribution (execution times, jitters).
	Dist = sim.Dist
	// Processor models one ECU's cores with global fixed-priority
	// preemptive scheduling.
	Processor = sim.Processor
	// Thread is a schedulable entity on a Processor.
	Thread = sim.Thread
)

// Middleware.
type (
	// Domain is the set of ECUs and the communication fabric.
	Domain = dds.Domain
	// ECU is one processing resource with a PTP-synchronized clock.
	ECU = dds.ECU
	// Node is a single-threaded process with an executor.
	Node = dds.Node
	// Publisher writes samples on a topic.
	Publisher = dds.Publisher
	// Subscription receives samples of a topic.
	Subscription = dds.Subscription
	// Sample is one published message.
	Sample = dds.Sample
	// Device is a periodic sensor (e.g. a lidar).
	Device = dds.Device
	// LinkConfig parameterizes a network link.
	LinkConfig = netsim.Config
	// ClockConfig parameterizes a PTP-synchronized clock.
	ClockConfig = vclock.Config
)

// Monitoring core.
type (
	// LocalMonitor supervises the local segments of one ECU.
	LocalMonitor = monitor.LocalMonitor
	// LocalSegment is one monitored local segment.
	LocalSegment = monitor.LocalSegment
	// RemoteMonitor supervises a remote segment (synchronization-based).
	RemoteMonitor = monitor.RemoteMonitor
	// KeyedRemoteMonitor supervises a topic with multiple writers, one
	// monitor per DDS topic key (§IV-B.2).
	KeyedRemoteMonitor = monitor.KeyedRemoteMonitor
	// InterArrivalMonitor is the DDS-deadline-QoS-style baseline.
	InterArrivalMonitor = monitor.InterArrivalMonitor
	// SegmentConfig parameterizes a monitored segment.
	SegmentConfig = monitor.SegmentConfig
	// SegmentSpec declares one segment for the declarative chain builder.
	SegmentSpec = monitor.SegmentSpec
	// ChainSpec declares a full event chain for BuildChain.
	ChainSpec = monitor.ChainSpec
	// BuiltChain is the wired result of BuildChain.
	BuiltChain = monitor.BuiltChain
	// SegmentKind distinguishes local and remote segments.
	SegmentKind = monitor.SegmentKind
	// Handler is an application exception handler.
	Handler = monitor.Handler
	// Recovery is substitute data returned by a handler.
	Recovery = monitor.Recovery
	// ExceptionContext is passed to handlers.
	ExceptionContext = monitor.ExceptionContext
	// Resolution is the recorded outcome of one segment activation.
	Resolution = monitor.Resolution
	// Chain tracks the end-to-end state of one event chain.
	Chain = monitor.Chain
	// Supervisor is the system-level entity deriving an operating mode
	// from the chain-level weakly-hard counters.
	Supervisor = monitor.Supervisor
	// SystemMode is the supervisor's operating mode.
	SystemMode = monitor.SystemMode
	// ModeChange records one supervisor transition.
	ModeChange = monitor.ModeChange
	// SegmentStats collects per-segment measurements.
	SegmentStats = monitor.SegmentStats
	// RemoteVariant selects where remote timeout routines run.
	RemoteVariant = monitor.RemoteVariant
	// Status is a segment activation outcome.
	Status = monitor.Status
)

// Weakly-hard constraints and budgeting.
type (
	// Constraint is a weakly-hard (m,k) constraint.
	Constraint = weaklyhard.Constraint
	// Counter is an online sliding-window (m,k) monitor.
	Counter = weaklyhard.Counter
	// BudgetProblem is a Section III-C budgeting instance.
	BudgetProblem = budget.Problem
	// BudgetSegment is one segment's trace input to the solver.
	BudgetSegment = budget.SegmentInput
	// BudgetAssignment is a solver result.
	BudgetAssignment = budget.Assignment
	// RTATask is a sporadic task for fixed-priority response-time analysis
	// (used to bound d_ex analytically, per the paper's footnote 1).
	RTATask = rta.Task
	// RTAResult is one task's analysis outcome.
	RTAResult = rta.Result
	// MonitorHandlerSet derives d_ex bounds for a monitor thread's
	// exception handlers.
	MonitorHandlerSet = rta.MonitorHandlerSet
)

// Tracing, statistics, workload.
type (
	// Trace is a set of recorded segment latency series.
	Trace = trace.Trace
	// TracePoint is the first time, per activation, of one DDS event.
	TracePoint = trace.Point
	// TraceSpan is a segment's ground truth between two points.
	TraceSpan = trace.Span
	// TraceRecorder turns spans into segment latency traces.
	TraceRecorder = trace.Recorder
	// StatsSample is a collection of measurements.
	StatsSample = stats.Sample
	// Boxplot is a Tukey five-number summary.
	Boxplot = stats.Boxplot
	// PointCloud is one lidar frame.
	PointCloud = lidar.PointCloud
	// BoundingBox is one detected obstacle.
	BoundingBox = lidar.BoundingBox
	// FrameMeta describes a frame's workload.
	FrameMeta = lidar.FrameMeta
	// SceneConfig parameterizes the synthetic lidar environment.
	SceneConfig = lidar.SceneConfig
	// CostModel maps perception workload to virtual execution times.
	CostModel = lidar.CostModel
	// PerceptionConfig parameterizes the Autoware-style use case.
	PerceptionConfig = perception.Config
	// PerceptionSystem is the built use case.
	PerceptionSystem = perception.System
	// PerceptionFrame is the payload flowing through the use case.
	PerceptionFrame = perception.FrameData
	// RealtimeConfig parameterizes a wall-clock monitor run.
	RealtimeConfig = realtime.Config
	// RealtimeResult is the outcome of a wall-clock monitor run.
	RealtimeResult = realtime.Result
	// MetricsRegistry is the lock-free live-metrics table.
	MetricsRegistry = telemetry.Registry
	// TelemetrySink bundles the flight recorder and the metrics registry.
	TelemetrySink = telemetry.Sink
)

// Statuses and variants.
const (
	StatusOK        = monitor.StatusOK
	StatusRecovered = monitor.StatusRecovered
	StatusMissed    = monitor.StatusMissed

	VariantMonitorThread = monitor.VariantMonitorThread
	VariantDDSContext    = monitor.VariantDDSContext

	ModeNominal  = monitor.ModeNominal
	ModeDegraded = monitor.ModeDegraded
	ModeSafeStop = monitor.ModeSafeStop

	KindLocal  = monitor.KindLocal
	KindRemote = monitor.KindRemote
)

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Segment names of the perception use case (Fig. 2 of the paper).
const (
	SegFrontRemote  = perception.SegFrontRemote
	SegRearRemote   = perception.SegRearRemote
	SegFusionFront  = perception.SegFusionFront
	SegFusionRear   = perception.SegFusionRear
	SegFusedRemote  = perception.SegFusedRemote
	SegObjectsLocal = perception.SegObjectsLocal
	SegGroundLocal  = perception.SegGroundLocal
)

// NewKernel returns a fresh simulation kernel at time zero.
func NewKernel() *Kernel { return sim.NewKernel() }

// NewRNG returns a seeded deterministic random stream.
func NewRNG(seed int64) *RNG { return sim.NewRNG(seed) }

// NewDomain creates a middleware domain on the kernel.
func NewDomain(k *Kernel, rng *RNG) *Domain { return dds.NewDomain(k, rng) }

// NewLocalMonitor creates the high-priority monitor thread of an ECU.
func NewLocalMonitor(ecu *ECU) *LocalMonitor { return monitor.NewLocalMonitor(ecu) }

// NewRemoteMonitor attaches a synchronization-based monitor to the
// subscription.
func NewRemoteMonitor(sub *Subscription, cfg SegmentConfig, v RemoteVariant, lm *LocalMonitor) *RemoteMonitor {
	return monitor.NewRemoteMonitor(sub, cfg, v, lm)
}

// NewInterArrivalMonitor attaches the inter-arrival baseline supervisor.
func NewInterArrivalMonitor(sub *Subscription, tMax Duration) *InterArrivalMonitor {
	return monitor.NewInterArrivalMonitor(sub, tMax)
}

// NewKeyedRemoteMonitor attaches one synchronization-based monitor per
// observed writer of the subscription's topic.
func NewKeyedRemoteMonitor(sub *Subscription, cfg SegmentConfig, v RemoteVariant, lm *LocalMonitor, onCreate func(writer string, m *RemoteMonitor)) *KeyedRemoteMonitor {
	return monitor.NewKeyedRemoteMonitor(sub, cfg, v, lm, onCreate)
}

// NewChain creates an event chain tracker.
func NewChain(name string, be2e, bseg Duration, c Constraint) *Chain {
	return monitor.NewChain(name, be2e, bseg, c)
}

// NewSupervisor creates the system-level mode supervisor.
func NewSupervisor(k *Kernel, safeStopAfter int) *Supervisor {
	return monitor.NewSupervisor(k, safeStopAfter)
}

// BuildChain validates a chain specification and wires monitors,
// propagation and chain accounting in one call.
func BuildChain(spec ChainSpec, monitors map[*ECU]*LocalMonitor) (*BuiltChain, error) {
	return monitor.BuildChain(spec, monitors)
}

// NewCounter creates an online (m,k) window counter.
func NewCounter(c Constraint) *Counter { return weaklyhard.NewCounter(c) }

// NewTraceRecorder creates a recorder with no segments.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// TraceOnPublish hooks a trace point on the publisher's publications.
func TraceOnPublish(pub *Publisher) *TracePoint { return trace.OnPublish(pub) }

// TraceOnDevicePublish hooks a trace point on a device's publications.
func TraceOnDevicePublish(dev *Device) *TracePoint { return trace.OnDevicePublish(dev) }

// TraceOnDeliver hooks a trace point on the subscription's raw deliveries.
func TraceOnDeliver(sub *Subscription) *TracePoint { return trace.OnDeliver(sub) }

// SolveBudgetIndependent solves the budgeting CSP with propagation factors
// forced to zero (the paper's per-segment decomposition).
func SolveBudgetIndependent(p BudgetProblem) BudgetAssignment { return budget.SolveIndependent(p) }

// SolveBudgetExact solves the budgeting CSP by branch-and-bound;
// maxCandidates > 0 reduces each segment's candidate set to quantiles.
func SolveBudgetExact(p BudgetProblem, maxCandidates int) BudgetAssignment {
	return budget.SolveExact(p, maxCandidates)
}

// SolveBudgetGreedy runs the propagation-aware heuristic.
func SolveBudgetGreedy(p BudgetProblem) BudgetAssignment { return budget.SolveGreedy(p) }

// Schedulable reports whether a chain's budgeting CSP has a solution.
func Schedulable(p BudgetProblem) (bool, BudgetAssignment) { return budget.Schedulable(p) }

// BuildPerception assembles the Autoware.Auto-style use case of the paper.
func BuildPerception(cfg PerceptionConfig) *PerceptionSystem { return perception.Build(cfg) }

// DefaultPerceptionConfig is calibrated to reproduce the evaluation.
func DefaultPerceptionConfig() PerceptionConfig { return perception.DefaultConfig() }

// RunRealtime executes the wall-clock monitor scenario; sink (may be nil)
// receives live metrics — and, with a full sink, a causal flow trace — and
// is safe to scrape concurrently during the run.
func RunRealtime(cfg RealtimeConfig, sink *TelemetrySink) (RealtimeResult, error) {
	return realtime.Run(cfg, sink)
}

// DefaultRealtimeConfig is sized for a ~1 s smoke run.
func DefaultRealtimeConfig() RealtimeConfig { return realtime.DefaultConfig() }

// NewMetricsRegistry creates an empty live-metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// EthernetLink returns the default inter-ECU link configuration.
func EthernetLink() LinkConfig { return netsim.Ethernet() }

// LoopbackLink returns the default intra-ECU link configuration.
func LoopbackLink() LinkConfig { return netsim.Loopback() }
