package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"runtime"
	"strings"
	"time"

	"chainmon/internal/adaptive"
	"chainmon/internal/blame"
	"chainmon/internal/livestats"
	"chainmon/internal/monitor"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
)

// Ladder rungs of perception_live: each adds one layer to the previous one,
// so a rung's cost minus the previous rung's cost is that layer's marginal.
const (
	rungBare = iota
	rungMonitored
	rungRecorder
	rungStream
	rungLive
	rungBlame
	rungAdaptive
	numRungs
)

var rungNames = [numRungs]string{
	"unmonitored", "monitored", "+recorder", "+stream", "+livestats", "+blame", "+adaptive",
}

// rungLayers names the per-layer metric prefix of each rung's marginal.
var rungLayers = [numRungs]string{
	"sim", "monitor", "telemetry.recorder", "telemetry.stream", "livestats", "blame", "adaptive",
}

const (
	// liveFrames is the length of one perception_live run: 300 s of
	// simulated operation at the 100 ms lidar period. At this length every
	// flight-recorder track holds all of its events at the default
	// capacity, so the recorder drops nothing.
	liveFrames = 3000
	// scrapeEvery is the virtual-time interval of the /health + /metrics
	// scrapes.
	scrapeEvery = 10 * sim.Second
	// adaptEvery is the adaptive controller's tick interval.
	adaptEvery = sim.Second
	// liveSetups is how many times set-up is repeated for its median.
	liveSetups = 15
)

// perceptionConfig is the full-chain Fig. 1 stack with hold-over recovery on
// the two lidar remote segments, as `chainmon -full -recover` builds it.
func perceptionConfig(seed int64, frames int) perception.Config {
	cfg := perception.DefaultConfig()
	cfg.Seed = seed
	cfg.Frames = frames
	cfg.FullChain = true
	recover := func(*monitor.ExceptionContext) *monitor.Recovery {
		return &monitor.Recovery{
			Data: &perception.FrameData{Points: 11000, FrontOnly: true},
			Size: 16 * 11000,
		}
	}
	cfg.Handlers = map[string]monitor.Handler{
		perception.SegFrontRemote: recover,
		perception.SegRearRemote:  recover,
	}
	return cfg
}

// liveRun is one perception system wired up to a ladder rung.
type liveRun struct {
	sys    *perception.System
	sink   *telemetry.Sink
	stream *telemetry.StreamWriter
	log    *bytes.Buffer
	live   *livestats.Set
	eng    *blame.Engine

	// healthUS and metricsUS are the render times of the scrapes, in µs.
	healthUS, metricsUS []float64
	lastHealth          []byte
}

// bufWriter is an http.ResponseWriter into memory, so a scrape exercises
// the real handlers without a socket.
type bufWriter struct {
	bytes.Buffer
	h http.Header
}

func (w *bufWriter) Header() http.Header { return w.h }
func (w *bufWriter) WriteHeader(int)     {}

var scrapeRequest = &http.Request{Method: http.MethodGet}

// setupLive builds the system and attaches every layer up to rung, in the
// order cmd/chainmon wires them: the sink and its stream exist before the
// build, so every track reaches the log.
func setupLive(cfg perception.Config, rung int) (*liveRun, error) {
	r := &liveRun{}
	if rung == rungBare {
		cfg.Monitored = false
		cfg.FullChain = false
		cfg.Handlers = nil
	}
	if rung >= rungRecorder {
		r.sink = telemetry.NewSink(telemetry.DefaultTrackCap)
	}
	if rung >= rungStream {
		r.log = &bytes.Buffer{}
		sw, err := telemetry.NewStreamWriter(r.log, "sim", telemetry.StreamOptions{Metrics: r.sink.Reg})
		if err != nil {
			return nil, fmt.Errorf("starting stream: %w", err)
		}
		r.stream = sw
		r.sink.Rec.SetStream(sw)
	}
	if rung >= rungLive {
		r.live = livestats.NewSet(0)
		live, sink := r.live, r.sink
		sink.AddExportHook(func() { live.PublishMetrics(sink.Reg) })
		live.AddDropSource("flight-recorder", sink.Rec.Dropped)
		live.AddDropSource("trace-stream", r.stream.Dropped)
	}
	if rung >= rungBlame {
		eng, sink := blame.New(blame.Options{}), r.sink
		eng.SetTimebase("sim")
		r.stream.SetObserver(eng.Feed)
		sink.AddExportHook(func() {
			eng.PublishMetrics(sink.Reg, blame.RecorderResolvers(sink.Rec))
		})
		r.live.SetBlameProvider(func() any {
			return eng.Snapshot(blame.RecorderResolvers(sink.Rec))
		})
		r.live.SetMetaProvider(func() any {
			return map[string]any{"scenario": "perception", "budget_epoch": eng.Epoch()}
		})
		r.eng = eng
	}

	s := perception.Build(cfg)
	r.sys = s
	if r.sink != nil {
		perception.AttachTelemetry(s, r.sink)
	}
	if r.live != nil {
		perception.AttachLive(s, r.live)
	}
	if rung >= rungAdaptive {
		if err := attachAdaptive(s, r.live, r.sink); err != nil {
			return nil, err
		}
	}
	if rung >= rungMonitored {
		sup := monitor.NewSupervisor(s.K, 5)
		sup.Watch(s.ChainFront)
		sup.Watch(s.ChainRear)
		sup.AttachTelemetry(r.sink)
	}
	if r.live != nil {
		r.scheduleScrapes()
	}
	return r, nil
}

// attachAdaptive wires the budget control loop to the ECU2 evaluation
// segments, as `chainmon -adaptive` does.
func attachAdaptive(s *perception.System, live *livestats.Set, sink *telemetry.Sink) error {
	cfg := s.Cfg
	table := monitor.NewBudgetTable()
	s.MonECU2.AttachBudget(table)
	ctrl, err := adaptive.New(adaptive.Config{
		Set: live, Table: table, Chain: s.ChainFront.Name,
		Segments: []adaptive.SegmentSpec{
			{Name: perception.SegObjectsLocal, Propagation: 1,
				Initial: cfg.LocalDeadline, Min: cfg.LocalDeadline / 20, Max: cfg.LocalDeadline},
			{Name: perception.SegGroundLocal, Propagation: 1,
				Initial: cfg.LocalDeadline, Min: cfg.LocalDeadline / 20, Max: cfg.LocalDeadline},
		},
		DEx:        sim.Millisecond,
		Be2e:       2*(cfg.LocalDeadline+sim.Millisecond) + cfg.LocalDeadline/5,
		Constraint: cfg.Constraint,
		Guard:      adaptive.Guardrails{Hysteresis: adaptive.DefaultHysteresis},
		Sink:       sink,
	})
	if err != nil {
		return fmt.Errorf("building adaptive controller: %w", err)
	}
	ctrl.ScheduleSim(s.K, adaptEvery, horizon(cfg))
	return nil
}

func horizon(cfg perception.Config) sim.Time {
	return sim.Time(cfg.Frames) * sim.Time(cfg.Period)
}

// scheduleScrapes renders /health and /metrics every scrapeEvery of virtual
// time, timing each render on the wall clock.
func (r *liveRun) scheduleScrapes() {
	k := r.sys.K
	end := horizon(r.sys.Cfg)
	health, metrics := r.live.Handler(), r.sink.Handler()
	hw := &bufWriter{h: http.Header{}}
	mw := &bufWriter{h: http.Header{}}
	var scrape func()
	scrape = func() {
		hw.Reset()
		mw.Reset()
		t0 := time.Now()
		health.ServeHTTP(hw, scrapeRequest)
		t1 := time.Now()
		metrics.ServeHTTP(mw, scrapeRequest)
		t2 := time.Now()
		r.healthUS = append(r.healthUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		r.metricsUS = append(r.metricsUS, float64(t2.Sub(t1).Nanoseconds())/1e3)
		r.lastHealth = append(r.lastHealth[:0], hw.Bytes()...)
		if next := k.Now().Add(scrapeEvery); next <= end {
			k.At(next, scrape)
		}
	}
	k.At(sim.Time(0).Add(scrapeEvery), scrape)
}

// run executes the simulation and settles the online layers: blame is
// flushed and its exemplars reach the log before the stream closes.
func (r *liveRun) run() error {
	r.sys.Run()
	if r.eng != nil {
		r.eng.Flush()
		r.eng.FlushExemplars(r.sink.Rec.Track("blame-exemplar"))
	}
	if r.stream != nil {
		if err := r.stream.Close(); err != nil {
			return fmt.Errorf("closing stream: %w", err)
		}
	}
	return nil
}

// segmentStats lists the seven monitored segments of the full chain.
func segmentStats(s *perception.System) []*monitor.SegmentStats {
	return []*monitor.SegmentStats{
		s.RemFront.Stats(), s.RemRear.Stats(), s.FusionFront.Stats(), s.FusionRear.Stats(),
		s.RemFused.Stats(), s.SegObjects.Stats(), s.SegGround.Stats(),
	}
}

// verdictDigest hashes every resolution of the seven segments.
func verdictDigest(s *perception.System) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, st := range segmentStats(s) {
		h.Write([]byte(st.Name))
		for _, r := range st.Resolutions() {
			put(int64(r.Activation))
			put(int64(r.Status))
			put(int64(r.Start))
			put(int64(r.End))
			put(int64(r.HandlerEntry))
			put(int64(r.HandlerDone))
			put(int64(r.DetectionLatency))
		}
	}
	return h.Sum64()
}

// ladderNames are the per-layer metric names of a rung's marginal: a module
// prefix gets ".ns_per_frame", a module.part prefix "_ns_per_frame".
func ladderNames(layer string) (ns, allocs string) {
	sep := "."
	if strings.Contains(layer, ".") {
		sep = "_"
	}
	return layer + sep + "ns_per_frame", layer + sep + "allocs_per_frame"
}

// reportCounts reports the traffic and counter properties of a fully wired
// run: they move only when a change alters what the system does.
func (r *liveRun) reportCounts(out *outcome) {
	frames := float64(r.sys.Cfg.Frames)
	heapOps := r.sink.Reg.Counter("chainmon_kernel_heap_ops_total", "").Value()
	out.set("sim.kernel_heap_ops_per_frame", float64(heapOps)/frames)
	var res, exc int
	for _, st := range segmentStats(r.sys) {
		ok, rec, miss := st.Counts()
		res += ok + rec + miss
		exc += rec + miss
	}
	out.set("monitor.resolutions_per_frame", float64(res)/frames)
	out.set("monitor.exceptions_per_frame", float64(exc)/frames)
	out.set("telemetry.stream_bytes_per_frame", float64(r.stream.BytesWritten())/frames)
	out.set("telemetry.stream_dropped", float64(r.stream.Dropped()))
	// The controller's history is capped, so the exported counters are read.
	var ticks uint64
	for _, res := range []string{adaptive.ResultApplied, adaptive.ResultHeld, adaptive.ResultInfeasible, adaptive.ResultRollback} {
		ticks += r.sink.Reg.Counter("chainmon_budget_actuations_total", "", telemetry.L("result", res)...).Value()
	}
	applied := r.sink.Reg.Counter("chainmon_budget_actuations_total", "", telemetry.L("result", adaptive.ResultApplied)...).Value()
	out.set("adaptive.ticks", float64(ticks))
	out.set("adaptive.applied", float64(applied))
}

// replay is the offline leg over the log a run wrote.
type replay struct {
	events                 int
	readS, reportS, blameS float64
	report                 *telemetry.Report
	offline                blame.Doc
}

func replayLog(raw []byte) (replay, error) {
	var rp replay
	t0 := time.Now()
	l, err := telemetry.ReadLog(bytes.NewReader(raw))
	if err != nil {
		return rp, fmt.Errorf("reading the stream log: %w", err)
	}
	t1 := time.Now()
	rp.report = telemetry.BuildReport(l)
	t2 := time.Now()
	rp.offline = blame.FromLog(l, blame.Options{}).Snapshot(blame.LogResolvers(l))
	t3 := time.Now()
	rp.events = l.Events()
	rp.readS, rp.reportS, rp.blameS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	return rp, nil
}

func (rp replay) seconds() float64 { return rp.readS + rp.reportS + rp.blameS }

// checkFull runs the in-run correctness checks of a fully wired run against
// its replay: nothing dropped, offline blame equal to online blame byte for
// byte, and the log's per-segment verdict counts equal to SegmentStats.
func (r *liveRun) checkFull(rp replay, out *outcome) {
	if d := r.sink.Rec.Dropped(); d != 0 {
		out.fail("flight recorder dropped %d events", d)
	}
	if d := r.stream.Dropped(); d != 0 {
		out.fail("stream dropped %d events", d)
	}
	online, err := json.Marshal(r.eng.Snapshot(blame.RecorderResolvers(r.sink.Rec)))
	if err != nil {
		out.fail("encoding online blame: %v", err)
		return
	}
	offline, err := json.Marshal(rp.offline)
	if err != nil {
		out.fail("encoding offline blame: %v", err)
		return
	}
	if !bytes.Equal(online, offline) {
		out.fail("online blame snapshot (%d bytes) differs from the offline one (%d bytes)", len(online), len(offline))
	}
	bySeg := map[string]*telemetry.SegmentReport{}
	for _, sr := range rp.report.Segments {
		bySeg[sr.Name] = sr
	}
	for _, st := range segmentStats(r.sys) {
		ok, rec, miss := st.Counts()
		sr := bySeg[st.Name]
		if sr == nil {
			out.fail("report lacks segment %s", st.Name)
			continue
		}
		if sr.OK != ok || sr.Recovered != rec || sr.Missed != miss {
			out.fail("segment %s: report ok/rec/miss %d/%d/%d, SegmentStats %d/%d/%d",
				st.Name, sr.OK, sr.Recovered, sr.Missed, ok, rec, miss)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(r.lastHealth, &doc); err != nil || doc["blame"] == nil || doc["budget"] == nil {
		out.fail("last /health scrape is not a complete health document (%v)", err)
	}
}

// measured is one timed run phase.
type measured struct {
	seconds float64
	mallocs uint64
}

// timeRun runs fn between two memory-statistics reads, after a collection
// so every run starts from the same heap.
func timeRun(fn func() error) (measured, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return measured{seconds: el.Seconds(), mallocs: m1.Mallocs - m0.Mallocs}, err
}

// liveHeapMB collects and reports the bytes of live heap objects, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// perceptionLive runs the fully wired stack repeatedly on the same seed
// (untraced), or the layer ladder (traced).
func perceptionLive(seed int64, budget time.Duration, traced bool, out *outcome) error {
	cfg := perceptionConfig(seed, liveFrames)
	spd := newSpeed()
	if traced {
		return perceptionLadder(cfg, budget, spd, out)
	}
	// Set-up is timed on its own, before the runs churn the heap, so it
	// measures building and attaching rather than the heap the runs left.
	var setupS []float64
	for i := 0; i < liveSetups; i++ {
		runtime.GC()
		f := spd.sample()
		t0 := time.Now()
		if _, err := setupLive(cfg, rungAdaptive); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds()/f)
	}

	var fps, allocs, replayEPS, heapMB, scrapeUS, rawFPS []float64
	deadline := time.Now().Add(budget)
	var digest uint64
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		runtime.GC()
		f := spd.sample()
		r, err := setupLive(cfg, rungAdaptive)
		if err != nil {
			return err
		}
		m, err := timeRun(r.run)
		if err != nil {
			return err
		}
		// The mean of the samples taken before and after brackets the run.
		f = (f + spd.sample()) / 2
		rp, err := replayLog(r.log.Bytes())
		if err != nil {
			return err
		}
		rawFPS = append(rawFPS, float64(cfg.Frames)/m.seconds)
		fps = append(fps, float64(cfg.Frames)/m.seconds*f)
		allocs = append(allocs, float64(m.mallocs)/float64(cfg.Frames))
		replayEPS = append(replayEPS, float64(rp.events)/rp.seconds())
		for i := range r.healthUS {
			scrapeUS = append(scrapeUS, (r.healthUS[i]+r.metricsUS[i])/f)
		}
		r.checkFull(rp, out)
		if d := verdictDigest(r.sys); rep == 0 {
			digest = d
		} else if d != digest {
			out.fail("repetition %d: verdict digest %016x differs from the first repetition's %016x", rep, d, digest)
		}
		out.attempted += int64(r.stream.EventsWritten())
		out.failed += int64(r.sink.Rec.Dropped() + r.stream.Dropped())
		heapMB = append(heapMB, liveHeapMB())
		runtime.KeepAlive(r)
	}
	out.note("perception_live: %d repetitions of %d frames, verdict digest %016x", len(fps), cfg.Frames, digest)
	out.note("raw %.4g frames/s, replay %.4g events/s, reference pass %.3g ms", median(rawFPS), median(replayEPS), spd.passMS())
	out.set("setup_s", median(setupS))
	out.set("throughput_per_s", median(fps))
	out.set("allocs_per_op", median(allocs))
	out.set("heap_mb", median(heapMB))
	out.setPct("latency_us_p50", newDist("scrape latency", scrapeUS), 0.5, 1)
	return nil
}

// perceptionLadder measures every rung on the same seed, round after round
// until the budget is spent, and reports the per-rung marginals.
func perceptionLadder(cfg perception.Config, budget time.Duration, spd *speed, out *outcome) error {
	frames := float64(cfg.Frames)
	var ns, allocs [numRungs][]float64
	var buildMS, replayEPS, readMS, reportMS, blameMS, heapMB, healthUS, metricsUS, fullFPS []float64
	deadline := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		spd.sample()
		var monitored uint64 // the monitored rung's verdict digest
		for rung := 0; rung < numRungs; rung++ {
			t0 := time.Now()
			r, err := setupLive(cfg, rung)
			if err != nil {
				return err
			}
			if rung == rungAdaptive {
				buildMS = append(buildMS, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			m, err := timeRun(r.run)
			if err != nil {
				return err
			}
			ns[rung] = append(ns[rung], m.seconds*1e9/frames)
			allocs[rung] = append(allocs[rung], float64(m.mallocs)/frames)
			switch {
			case rung == rungMonitored:
				monitored = verdictDigest(r.sys)
			case rung > rungMonitored:
				if d := verdictDigest(r.sys); d != monitored {
					out.fail("round %d: rung %s verdict digest %016x differs from the monitored rung's %016x",
						round, rungNames[rung], d, monitored)
				}
			}
			if rung != rungAdaptive {
				continue
			}
			rp, err := replayLog(r.log.Bytes())
			if err != nil {
				return err
			}
			r.checkFull(rp, out)
			fullFPS = append(fullFPS, frames/m.seconds)
			replayEPS = append(replayEPS, float64(rp.events)/rp.seconds())
			readMS = append(readMS, rp.readS*1e3)
			reportMS = append(reportMS, rp.reportS*1e3)
			blameMS = append(blameMS, rp.blameS*1e3)
			healthUS = append(healthUS, r.healthUS...)
			metricsUS = append(metricsUS, r.metricsUS...)
			out.attempted += int64(r.stream.EventsWritten())
			out.failed += int64(r.sink.Rec.Dropped() + r.stream.Dropped())
			if round == 0 {
				r.reportCounts(out)
			}
			heapMB = append(heapMB, liveHeapMB())
			runtime.KeepAlive(r)
		}
	}

	cumNS := make([]float64, numRungs)
	cumAllocs := make([]float64, numRungs)
	for rung := range cumNS {
		cumNS[rung] = median(ns[rung])
		cumAllocs[rung] = median(allocs[rung])
		out.note("rung %-12s %9.0f ns/frame %7.1f allocs/frame (%d runs)",
			rungNames[rung], cumNS[rung], cumAllocs[rung], len(ns[rung]))
	}
	mNS, mAllocs := marginals(cumNS), marginals(cumAllocs)
	for rung, layer := range rungLayers {
		nsName, allocName := ladderNames(layer)
		out.set(nsName, mNS[rung])
		out.set(allocName, mAllocs[rung])
	}
	out.set("machine.ref_pass_ms", spd.passMS())
	out.set("perception.frames_per_s", median(fullFPS))
	out.set("perception.allocs_per_frame", cumAllocs[rungAdaptive])
	out.set("perception.replay_events_per_s", median(replayEPS))
	out.set("perception.build_ms", median(buildMS))
	out.set("telemetry.read_ms", median(readMS))
	out.set("telemetry.report_ms", median(reportMS))
	out.set("blame.replay_ms", median(blameMS))
	out.set("sim.heap_inuse_mb", median(heapMB))
	out.tryPct("livestats.health_render_us_p50", newDist("health render", healthUS), 0.5, 1)
	out.tryPct("telemetry.metrics_render_us_p50", newDist("metrics render", metricsUS), 0.5, 1)
	return nil
}
