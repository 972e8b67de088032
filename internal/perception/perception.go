// Package perception assembles the paper's running example: the
// Autoware.Auto environment-perception stack of Fig. 1. Two lidars publish
// periodic point clouds over the network to the fusion service on ECU 1;
// the fused cloud crosses to ECU 2 where the classifier splits it into
// ground and non-ground points, the object-detection service clusters
// obstacles, and the plan service (rviz2 in the evaluation) consumes the
// objects and ground topics.
//
// The event chains are segmented exactly as in Fig. 2, and the evaluation's
// two monitored local segments on ECU 2 — classifier reception to objects
// reception ("objects") and to ground-points reception ("ground") — are
// wired through the LocalMonitor.
package perception

import (
	"fmt"
	"maps"

	"chainmon/internal/dds"
	"chainmon/internal/lidar"
	"chainmon/internal/monitor"
	"chainmon/internal/netsim"
	"chainmon/internal/sim"
	"chainmon/internal/trace"
	"chainmon/internal/vclock"
	"chainmon/internal/weaklyhard"
)

// DeviceJitterMax is the truncation bound of the lidars' activation jitter
// J^a. The synchronization-based remote monitor's pessimism is bounded by
// J^a + ε (§IV-B), so the fault-injection oracle derives its tolerance
// bands from this constant.
const DeviceJitterMax = 5 * sim.Millisecond

// Topic names of the stack.
const (
	TopicFront     = "points_front"
	TopicRear      = "points_rear"
	TopicFused     = "points_fused"
	TopicGround    = "points_ground"
	TopicNonGround = "points_nonground"
	TopicObjects   = "objects"
)

// Segment names.
const (
	SegFrontRemote  = "s0a/front-lidar"
	SegRearRemote   = "s0b/rear-lidar"
	SegFusionFront  = "s1a/fusion-front"
	SegFusionRear   = "s1b/fusion-rear"
	SegFusedRemote  = "s2/fused"
	SegObjectsLocal = "s3a/objects"
	SegGroundLocal  = "s3b/ground"
	// SegE2EFront is the front chain of Fig. 2 end to end: front lidar
	// publication to objects reception at the plan service.
	SegE2EFront = "e2e/front-objects"
)

// FrameData is the payload carried on every topic: workload metadata (and
// optionally real geometry when RealCompute is enabled).
type FrameData struct {
	Meta    lidar.FrameMeta
	Points  int // points carried by this message
	Objects int // detected objects (objects topic)
	Cloud   *lidar.PointCloud
	Boxes   []lidar.BoundingBox
	// FrontOnly marks recovery outputs that contain only the front
	// lidar's data (the Fig. 3 recovery case).
	FrontOnly bool
}

// HoldOver is the hold-over recovery handler of the lidar remote segments:
// it repeats the last frame's shape with the front lidar's points only.
func HoldOver(*monitor.ExceptionContext) *monitor.Recovery {
	return &monitor.Recovery{Data: &FrameData{Points: 11000, FrontOnly: true}, Size: 16 * 11000}
}

// Config parameterizes a perception system build.
type Config struct {
	Seed   int64
	Period sim.Duration
	Frames int

	Scene lidar.SceneConfig
	Costs lidar.CostModel
	// RealCompute materializes geometry and runs the real algorithms in
	// the callbacks (examples); otherwise only workload metadata flows.
	RealCompute bool

	ClockEpsilon sim.Duration
	// Network is the inter-ECU link configuration.
	Network netsim.Config
	// ECU2Cores controls contention on the perception ECU (the evaluation
	// machine was a small quad-core running everything).
	ECU1Cores, ECU2Cores int

	// Monitored enables the paper's monitors; otherwise the system runs
	// bare (the "without monitoring" runs and trace recording).
	Monitored bool
	// LocalDeadline is d_mon of the two evaluation segments (100 ms).
	LocalDeadline sim.Duration
	// RemoteDeadline is d_mon of the remote segments.
	RemoteDeadline sim.Duration
	// Constraint is the chain (m,k) constraint used for all segments.
	Constraint weaklyhard.Constraint
	// RemoteVariant selects where remote timeout routines run.
	RemoteVariant monitor.RemoteVariant
	// FullChain additionally monitors the lidar→fusion remote segments,
	// the fusion local segments and the fused remote segment, and builds
	// the two end-to-end chains.
	FullChain bool
	// Handlers maps segment names to application exception handlers
	// (nil entries and missing keys propagate).
	Handlers map[string]monitor.Handler
	// GroundFirst registers the ground segment before the objects segment
	// at the ECU2 monitor (ablation of the fixed buffer processing order;
	// the evaluation registers objects first).
	GroundFirst bool
	// Partition selects the ECU2 scheduling ablation: "" keeps the
	// evaluation's free migration ("we allowed thread migration between
	// cores and frequency scaling"); "balanced" pins threads round-robin
	// (the heavy services land on distinct cores); "colocated" pins the
	// three heavy services to one core (a pathological static partition).
	Partition string
}

// DefaultConfig is calibrated to reproduce the evaluation's shape.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Period:         100 * sim.Millisecond,
		Frames:         500,
		Scene:          lidar.DefaultScene(),
		Costs:          lidar.DefaultCostModel(),
		ClockEpsilon:   50 * sim.Microsecond,
		Network:        netsim.Ethernet(),
		ECU1Cores:      2,
		ECU2Cores:      3,
		Monitored:      true,
		LocalDeadline:  100 * sim.Millisecond,
		RemoteDeadline: 20 * sim.Millisecond,
		Constraint:     weaklyhard.Constraint{M: 2, K: 10},
		RemoteVariant:  monitor.VariantMonitorThread,
	}
}

// System is a built perception stack.
type System struct {
	Cfg    Config
	K      *sim.Kernel
	Domain *dds.Domain
	ECU1   *dds.ECU
	ECU2   *dds.ECU

	FrontLidar *dds.Device
	RearLidar  *dds.Device
	Fusion     *dds.Node
	Classifier *dds.Node
	Detection  *dds.Node
	Plan       *dds.Node
	PlanGround *dds.Node

	// Subscriptions (exported for experiment wiring).
	FusionFrontSub *dds.Subscription
	FusionRearSub  *dds.Subscription
	ClassifierSub  *dds.Subscription
	DetectionSub   *dds.Subscription
	PlanObjectsSub *dds.Subscription
	PlanGroundSub  *dds.Subscription

	FusedPub     *dds.Publisher
	GroundPub    *dds.Publisher
	NonGroundPub *dds.Publisher
	ObjectsPub   *dds.Publisher

	// Monitors (nil unless Monitored).
	MonECU1    *monitor.LocalMonitor
	MonECU2    *monitor.LocalMonitor
	SegObjects *monitor.LocalSegment
	SegGround  *monitor.LocalSegment
	// Full-chain monitors (nil unless FullChain).
	RemFront    *monitor.RemoteMonitor
	RemRear     *monitor.RemoteMonitor
	RemFused    *monitor.RemoteMonitor
	FusionFront *monitor.LocalSegment
	FusionRear  *monitor.LocalSegment
	ChainFront  *monitor.Chain
	ChainRear   *monitor.Chain

	spans []trace.Span // ground truth, hooked by the first Span call

	// Tracker is the plan service's object tracker, maintained across
	// frames when RealCompute is enabled.
	Tracker *lidar.Tracker

	// PlanDelivered counts frames whose objects reached the plan service.
	PlanDelivered uint64

	frontGen *lidar.SceneGenerator
	rearGen  *lidar.SceneGenerator
	rng      *sim.RNG

	// fusion join state (touched on ECU1 mw/exec threads — single-threaded
	// simulation makes this safe). The first arrival of activation
	// fusionPruneAt or later prunes the three maps.
	frontArrived  map[uint64]*FrameData
	rearArrived   map[uint64]*FrameData
	fusedDone     map[uint64]bool
	fusionPruneAt uint64
}

// fusionHorizon bounds the fusion join's bookkeeping, in activations: no
// key stays in its maps once it is that far behind the newest activation
// the join has seen. It is the horizon of the local monitors' activation
// windows. A pruned key would matter only to a sample arriving more than
// fusionHorizon − fusionPruneStride activations behind the newest, and no
// link delay, hold or duplicate comes near that.
const (
	fusionHorizon     = 4096
	fusionPruneStride = 256
)

// Build constructs the system.
func Build(cfg Config) *System {
	k := sim.NewKernel()
	rng := sim.NewRNG(cfg.Seed)
	d := dds.NewDomain(k, rng)
	d.InterECU = cfg.Network

	s := &System{
		Cfg: cfg, K: k, Domain: d,
		rng:           rng.Derive("perception"),
		frontGen:      lidar.NewSceneGenerator(cfg.Scene, rng.Derive("front")),
		rearGen:       lidar.NewSceneGenerator(cfg.Scene, rng.Derive("rear")),
		frontArrived:  make(map[uint64]*FrameData),
		rearArrived:   make(map[uint64]*FrameData),
		fusedDone:     make(map[uint64]bool),
		fusionPruneAt: fusionHorizon - fusionPruneStride,
	}
	clockCfg := vclock.Config{Epsilon: cfg.ClockEpsilon}
	s.ECU1 = d.NewECU("ecu1", cfg.ECU1Cores, clockCfg)
	s.ECU2 = d.NewECU("ecu2", cfg.ECU2Cores, clockCfg)

	s.buildDevices(clockCfg)
	s.buildFusion()
	s.buildECU2()
	if cfg.Monitored {
		s.buildMonitors()
	}
	switch cfg.Partition {
	case "":
		// free migration
	case "balanced":
		for i, th := range s.ECU2.Proc.Threads() {
			th.PinTo(i % cfg.ECU2Cores)
		}
	case "colocated":
		// The three heavy workers share core 0; everything else is pinned
		// round-robin over the remaining cores.
		heavy := map[*sim.Thread]bool{
			s.Classifier.Exec:       true,
			s.Detection.Exec:        true,
			s.PlanGround.Middleware: true,
		}
		rest := 0
		for _, th := range s.ECU2.Proc.Threads() {
			if heavy[th] {
				th.PinTo(0)
				continue
			}
			if cfg.ECU2Cores > 1 {
				th.PinTo(1 + rest%(cfg.ECU2Cores-1))
				rest++
			} else {
				th.PinTo(0)
			}
		}
	default:
		panic(fmt.Sprintf("perception: unknown partition mode %q", cfg.Partition))
	}
	return s
}

func (s *System) buildDevices(clockCfg vclock.Config) {
	cfg := s.Cfg
	s.FrontLidar = s.Domain.NewDevice("front-lidar", TopicFront, cfg.Period, clockCfg)
	s.RearLidar = s.Domain.NewDevice("rear-lidar", TopicRear, cfg.Period, clockCfg)
	jitter := sim.LogNormalDist{Median: 300 * sim.Microsecond, Sigma: 0.5, Max: DeviceJitterMax}
	s.FrontLidar.Jitter = jitter
	s.RearLidar.Jitter = jitter
	payload := func(g *lidar.SceneGenerator, frame string) func(uint64) (any, int) {
		return func(n uint64) (any, int) {
			if cfg.RealCompute {
				pc := g.NextFrame(n, frame, s.K.Now())
				return &FrameData{
					Meta:   lidar.FrameMeta{Activation: n, GroundPoints: 0, ObjectPoints: len(pc.Points)},
					Points: len(pc.Points),
					Cloud:  pc,
				}, pc.Size()
			}
			meta := g.NextMeta(n)
			return &FrameData{Meta: meta, Points: meta.TotalPoints()}, 16 * meta.TotalPoints()
		}
	}
	s.FrontLidar.Payload = payload(s.frontGen, "front")
	s.RearLidar.Payload = payload(s.rearGen, "rear")
}

// fusionCost charges the join cost on the arrival that completes the pair.
func (s *System) fusionCost(other map[uint64]*FrameData) func(*dds.Sample) sim.Duration {
	return func(smp *dds.Sample) sim.Duration {
		if o := other[smp.Activation]; o != nil {
			fd := smp.Data.(*FrameData)
			return s.Cfg.Costs.FuseCost(fd.Points+o.Points, s.rng)
		}
		return 50 * sim.Microsecond // bookkeeping only
	}
}

func (s *System) buildFusion() {
	s.Fusion = s.ECU1.NewNode("fusion", dds.PrioExecBase+3)
	s.FusedPub = s.Fusion.NewPublisher(TopicFused)

	join := func(self, other map[uint64]*FrameData) func(*dds.Sample) {
		return func(smp *dds.Sample) {
			s.pruneFusion(smp.Activation)
			fd := smp.Data.(*FrameData)
			self[smp.Activation] = fd
			o := other[smp.Activation]
			if o == nil || s.fusedDone[smp.Activation] {
				return
			}
			s.fusedDone[smp.Activation] = true
			out := &FrameData{
				Meta:   combineMeta(fd.Meta, o.Meta),
				Points: fd.Points + o.Points,
			}
			if s.Cfg.RealCompute && fd.Cloud != nil && o.Cloud != nil {
				out.Cloud = lidar.Fuse(fd.Cloud, o.Cloud)
			}
			s.FusedPub.Publish(smp.Activation, out, 16*out.Points)
			delete(self, smp.Activation)
			delete(other, smp.Activation)
		}
	}
	s.FusionFrontSub = s.Fusion.Subscribe(TopicFront,
		s.fusionCost(s.rearArrived), join(s.frontArrived, s.rearArrived))
	s.FusionRearSub = s.Fusion.Subscribe(TopicRear,
		s.fusionCost(s.frontArrived), join(s.rearArrived, s.frontArrived))
}

// pruneFusion drops, on the first arrival of each new stride of
// activations, the keys of all three maps that are fusionHorizon −
// fusionPruneStride or more behind it: a partner that never arrived, a
// duplicate that landed after its fusion, a fused frame's marker. Until the
// next prune the newest arrival stays below fusionPruneAt, so no key is
// ever fusionHorizon behind it.
func (s *System) pruneFusion(act uint64) {
	if act < s.fusionPruneAt {
		return
	}
	s.fusionPruneAt = act + fusionPruneStride
	cut := act - (fusionHorizon - fusionPruneStride)
	stale := func(a uint64, _ *FrameData) bool { return a <= cut }
	maps.DeleteFunc(s.frontArrived, stale)
	maps.DeleteFunc(s.rearArrived, stale)
	maps.DeleteFunc(s.fusedDone, func(a uint64, _ bool) bool { return a <= cut })
}

func combineMeta(a, b lidar.FrameMeta) lidar.FrameMeta {
	return lidar.FrameMeta{
		Activation:   a.Activation,
		Objects:      a.Objects + b.Objects,
		GroundPoints: a.GroundPoints + b.GroundPoints,
		ObjectPoints: a.ObjectPoints + b.ObjectPoints,
	}
}

func (s *System) buildECU2() {
	cfg := s.Cfg
	// Descending priorities along the chain, as in the evaluation.
	s.Classifier = s.ECU2.NewNode("classifier", dds.PrioExecBase+3)
	s.Detection = s.ECU2.NewNode("detection", dds.PrioExecBase+2)
	s.Plan = s.ECU2.NewNode("plan", dds.PrioExecBase+1)

	s.GroundPub = s.Classifier.NewPublisher(TopicGround)
	s.NonGroundPub = s.Classifier.NewPublisher(TopicNonGround)
	s.ObjectsPub = s.Detection.NewPublisher(TopicObjects)

	s.ClassifierSub = s.Classifier.Subscribe(TopicFused,
		func(smp *dds.Sample) sim.Duration {
			return cfg.Costs.ClassifyCost(smp.Data.(*FrameData).Points, s.rng)
		},
		func(smp *dds.Sample) {
			fd := smp.Data.(*FrameData)
			ground := &FrameData{Meta: fd.Meta, Points: fd.Meta.GroundPoints, FrontOnly: fd.FrontOnly}
			nonGround := &FrameData{Meta: fd.Meta, Points: fd.Meta.ObjectPoints, FrontOnly: fd.FrontOnly}
			if cfg.RealCompute && fd.Cloud != nil {
				g, n := lidar.ClassifyGround(fd.Cloud, 0.15)
				ground.Cloud, ground.Points = g, len(g.Points)
				nonGround.Cloud, nonGround.Points = n, len(n.Points)
			}
			s.GroundPub.Publish(smp.Activation, ground, 16*ground.Points)
			s.NonGroundPub.Publish(smp.Activation, nonGround, 16*nonGround.Points)
		})

	s.DetectionSub = s.Detection.Subscribe(TopicNonGround,
		func(smp *dds.Sample) sim.Duration {
			return cfg.Costs.ClusterCost(smp.Data.(*FrameData).Points, s.rng)
		},
		func(smp *dds.Sample) {
			fd := smp.Data.(*FrameData)
			out := &FrameData{Meta: fd.Meta, Objects: fd.Meta.Objects, FrontOnly: fd.FrontOnly}
			if cfg.RealCompute && fd.Cloud != nil {
				out.Boxes = lidar.Cluster(fd.Cloud, 1.5, 30)
				out.Objects = len(out.Boxes)
			}
			s.ObjectsPub.Publish(smp.Activation, out, 64*out.Objects+64)
		})

	if cfg.RealCompute {
		s.Tracker = lidar.NewTracker()
	}
	s.PlanObjectsSub = s.Plan.Subscribe(TopicObjects,
		func(smp *dds.Sample) sim.Duration {
			return cfg.Costs.PlanCost(smp.Data.(*FrameData).Objects, s.rng)
		},
		func(smp *dds.Sample) {
			s.PlanDelivered++
			if s.Tracker != nil {
				s.Tracker.Update(smp.Data.(*FrameData).Boxes, s.K.Now())
			}
		})
	// The plan service is rviz2 in the evaluation: its point-cloud display
	// takes and processes the large ground cloud on its own listener lane,
	// separate from the lightweight objects display. That take/render cost
	// dominates the ground topic's receive path, which is why the ground
	// segment misses its 100 ms deadline more often than the objects
	// segment despite the shorter route (Fig. 10: 1699 vs 934 exceptions).
	s.PlanGround = s.ECU2.NewNode("plan-ground", dds.PrioExecBase)
	s.PlanGroundSub = s.PlanGround.Subscribe(TopicGround,
		func(smp *dds.Sample) sim.Duration {
			return cfg.Costs.PlanCost(4, s.rng)
		},
		nil)
	s.PlanGroundSub.DeliverCost = func(smp *dds.Sample) sim.Duration {
		return cfg.Costs.RenderCost(smp.Data.(*FrameData).Points, s.rng)
	}
}

func (s *System) handler(name string) monitor.Handler {
	if s.Cfg.Handlers == nil {
		return nil
	}
	return s.Cfg.Handlers[name]
}

func (s *System) buildMonitors() {
	cfg := s.Cfg
	s.MonECU2 = monitor.NewLocalMonitor(s.ECU2)
	handlerCost := sim.LogNormalDist{Median: 20 * sim.Microsecond, Sigma: 0.4, Max: 200 * sim.Microsecond}

	// The evaluation's two local segments: both start at the classifier's
	// reception of the fused cloud; "objects" ends at the plan service's
	// reception of the objects topic, "ground" at its reception of the
	// ground topic. The objects segment is registered first — the monitor
	// processes buffers in that fixed order (Fig. 10); GroundFirst flips
	// the order for the ablation study.
	addObjects := func() {
		s.SegObjects = s.MonECU2.AddSegment(monitor.SegmentConfig{
			Name: SegObjectsLocal, DMon: cfg.LocalDeadline, DEx: sim.Millisecond,
			Period: cfg.Period, Constraint: cfg.Constraint,
			Handler: s.handler(SegObjectsLocal), HandlerCost: handlerCost,
		})
		s.SegObjects.StartOnDeliver(s.ClassifierSub)
		s.SegObjects.EndOnDeliver(s.PlanObjectsSub)
	}
	addGround := func() {
		s.SegGround = s.MonECU2.AddSegment(monitor.SegmentConfig{
			Name: SegGroundLocal, DMon: cfg.LocalDeadline, DEx: sim.Millisecond,
			Period: cfg.Period, Constraint: cfg.Constraint,
			Handler: s.handler(SegGroundLocal), HandlerCost: handlerCost,
		})
		s.SegGround.StartOnDeliver(s.ClassifierSub)
		s.SegGround.EndOnDeliver(s.PlanGroundSub)
	}
	if cfg.GroundFirst {
		addGround()
		addObjects()
	} else {
		addObjects()
		addGround()
	}

	if !cfg.FullChain {
		return
	}
	s.MonECU1 = monitor.NewLocalMonitor(s.ECU1)

	// Fusion local segments (front/rear reception → fused publication).
	s.FusionFront = s.MonECU1.AddSegment(monitor.SegmentConfig{
		Name: SegFusionFront, DMon: cfg.LocalDeadline / 2, DEx: sim.Millisecond,
		Period: cfg.Period, Constraint: cfg.Constraint,
		Handler: s.handler(SegFusionFront), HandlerCost: handlerCost,
	})
	s.FusionFront.StartOnDeliver(s.FusionFrontSub)
	s.FusionFront.EndOnPublish(s.FusedPub)
	s.FusionRear = s.MonECU1.AddSegment(monitor.SegmentConfig{
		Name: SegFusionRear, DMon: cfg.LocalDeadline / 2, DEx: sim.Millisecond,
		Period: cfg.Period, Constraint: cfg.Constraint,
		Handler: s.handler(SegFusionRear), HandlerCost: handlerCost,
	})
	s.FusionRear.StartOnDeliver(s.FusionRearSub)
	s.FusionRear.EndOnPublish(s.FusedPub)

	// Remote segments: lidars → fusion, fused → classifier. Note that the
	// remote monitors were attached after the fusion/classifier segment
	// hooks, but NewRemoteMonitor prepends its delivery hook so late
	// samples are discarded before any start event is posted.
	remCfg := func(name string) monitor.SegmentConfig {
		return monitor.SegmentConfig{
			Name: name, DMon: cfg.RemoteDeadline, DEx: sim.Millisecond,
			Period: cfg.Period, Constraint: cfg.Constraint,
			Handler: s.handler(name), HandlerCost: handlerCost,
		}
	}
	s.RemFront = monitor.NewRemoteMonitor(s.FusionFrontSub, remCfg(SegFrontRemote), cfg.RemoteVariant, s.MonECU1)
	s.RemFront.PropagateTo(s.FusionFront)
	s.RemRear = monitor.NewRemoteMonitor(s.FusionRearSub, remCfg(SegRearRemote), cfg.RemoteVariant, s.MonECU1)
	s.RemRear.PropagateTo(s.FusionRear)
	s.RemFused = monitor.NewRemoteMonitor(s.ClassifierSub, remCfg(SegFusedRemote), cfg.RemoteVariant, s.MonECU2)
	s.RemFused.PropagateTo(monitor.MultiPropagator{s.SegObjects, s.SegGround})

	if cfg.Frames > 0 {
		last := uint64(cfg.Frames - 1)
		s.RemFront.SetLastActivation(last)
		s.RemRear.SetLastActivation(last)
		s.RemFused.SetLastActivation(last)
	}

	// The two event chains of Fig. 2, both ending at the objects segment.
	be2e := 2*cfg.RemoteDeadline + cfg.LocalDeadline/2 + cfg.LocalDeadline + 4*sim.Millisecond
	s.ChainFront = monitor.NewChain("front-objects", be2e, cfg.Period, cfg.Constraint)
	s.ChainFront.Append(s.RemFront).Append(s.FusionFront).Append(s.RemFused).Append(s.SegObjects)
	s.ChainFront.Seal()
	s.ChainRear = monitor.NewChain("rear-objects", be2e, cfg.Period, cfg.Constraint)
	s.ChainRear.Append(s.RemRear).Append(s.FusionRear).Append(s.RemFused).Append(s.SegGround)
	s.ChainRear.Seal()
}

// truth returns the ground truth of every segment of Fig. 2 and of the
// front chain end to end (SegE2EFront). Each span names the DDS event that
// starts it and the one that ends it; the eight distinct events are hooked
// once per system, on the first call.
func (s *System) truth() []trace.Span {
	if s.spans != nil {
		return s.spans
	}
	frontPub := trace.OnDevicePublish(s.FrontLidar)
	rearPub := trace.OnDevicePublish(s.RearLidar)
	frontRecv := trace.OnDeliver(s.FusionFrontSub)
	rearRecv := trace.OnDeliver(s.FusionRearSub)
	fusedPub := trace.OnPublish(s.FusedPub)
	fusedRecv := trace.OnDeliver(s.ClassifierSub)
	objectsRecv := trace.OnDeliver(s.PlanObjectsSub)
	groundRecv := trace.OnDeliver(s.PlanGroundSub)
	s.spans = []trace.Span{
		{Name: SegFrontRemote, From: frontPub, To: frontRecv},
		{Name: SegRearRemote, From: rearPub, To: rearRecv},
		{Name: SegFusionFront, From: frontRecv, To: fusedPub},
		{Name: SegFusionRear, From: rearRecv, To: fusedPub},
		{Name: SegFusedRemote, From: fusedPub, To: fusedRecv},
		{Name: SegObjectsLocal, From: fusedRecv, To: objectsRecv},
		{Name: SegGroundLocal, From: fusedRecv, To: groundRecv},
		{Name: SegE2EFront, From: frontPub, To: objectsRecv},
	}
	return s.spans
}

// Span returns the ground truth of the named segment, or of SegE2EFront.
// The first call hooks the events every span starts and ends at, so it must
// come after Build and before Run. The budgeting recorder (RecordTrace) and
// the fault-injection oracle read the same spans.
func (s *System) Span(name string) trace.Span {
	for _, sp := range s.truth() {
		if sp.Name == name {
			return sp
		}
	}
	panic(fmt.Sprintf("perception: no span %q", name))
}

// RecordTrace records the budgeting input of the run: the two evaluation
// segments, the front fusion segment, the fused remote segment as its
// remote monitor measures it, and the front chain end to end. Call it after
// Build and before Run.
func (s *System) RecordTrace() *trace.Recorder {
	rec := trace.NewRecorder()
	rec.Segment(s.Span(SegObjectsLocal), 1)
	rec.Segment(s.Span(SegGroundLocal), 1)
	rec.Segment(s.Span(SegFusionFront), 1)
	rec.Remote(s.Span(SegFusedRemote), 1, s.Cfg.Period)
	rec.Segment(s.Span(SegE2EFront), 1)
	return rec
}

// Run starts the lidars, lets the system execute all configured frames and
// drains the backlog. It returns the end time.
func (s *System) Run() sim.Time {
	s.FrontLidar.Start(0)
	s.RearLidar.Start(0)
	end := sim.Time(s.Cfg.Frames) * sim.Time(s.Cfg.Period)
	s.K.At(end, func() {
		s.FrontLidar.Stop()
		s.RearLidar.Stop()
	})
	// Drain: after the last activation's worst-case path, stop the remote
	// monitors so the kernel runs dry.
	drain := end.Add(5 * sim.Second)
	s.K.At(drain, func() {
		for _, m := range []*monitor.RemoteMonitor{s.RemFront, s.RemRear, s.RemFused} {
			if m != nil {
				m.Stop()
			}
		}
	})
	s.K.Run()
	return s.K.Now()
}
