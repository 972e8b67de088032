package realtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"
	"time"

	"chainmon/internal/blame"
	"chainmon/internal/dds"
	"chainmon/internal/monitor"
	"chainmon/internal/online"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
	"chainmon/internal/vclock"
	"chainmon/internal/weaklyhard"
)

// TestBlameOnlineOfflineByteIdenticalWall pins the replay contract on the
// wall timebase through the online stack and its Close: the blame engine
// observing the stream writer during a live realtime run and the offline
// recomputation from the written log marshal to identical bytes. The
// observer sits inside the stream's event writer, so the online engine sees
// exactly the events, in exactly the order, that reach the log —
// byte-identity holds by construction even with the background drain
// goroutine (every 5 ms here) interleaving per-segment rings. Close drains
// the rings through the observer, settles the engine, mirroring the
// offline replay's feed-everything-then-flush order, and only then logs
// the exemplars, so the log carries every admission.
func TestBlameOnlineOfflineByteIdenticalWall(t *testing.T) {
	var buf bytes.Buffer
	st, err := online.New("wall", func(timebase string, opt telemetry.StreamOptions) (*telemetry.StreamWriter, error) {
		opt.RingCap, opt.FlushEvery = 1<<12, 5*time.Millisecond
		return telemetry.NewStreamWriter(&buf, timebase, opt)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Live = st.Live
	res, err := Run(cfg, st.Sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	onlineDoc := st.Blame.Snapshot(blame.RecorderResolvers(st.Sink.Rec))

	l, err := telemetry.ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	offline := blame.FromLog(l, blame.Options{}).Snapshot(blame.LogResolvers(l))

	got, err := json.MarshalIndent(onlineDoc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(offline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("online and offline blame reports diverge\nonline:\n%s\noffline:\n%s", got, want)
	}
	if onlineDoc.Timebase != "wall" {
		t.Errorf("timebase = %q, want wall", onlineDoc.Timebase)
	}
	// testConfig stalls every 4th ground frame: activations 3 and 7 miss.
	if _, _, miss := countsOf(res.Segments[1]); miss != 2 {
		t.Fatalf("ground misses = %d, want 2", miss)
	}
	if onlineDoc.Flows != uint64(testConfig().Frames) || onlineDoc.Missed != 2 {
		t.Errorf("attributed flows=%d missed=%d, want %d/2", onlineDoc.Flows, onlineDoc.Missed, testConfig().Frames)
	}
	logged := 0
	for _, tr := range l.Tracks() {
		if tr.Name == "blame-exemplar" {
			logged = len(tr.Events)
		}
	}
	if n := len(st.Sink.Rec.Track("blame-exemplar").Events()); n == 0 || n != logged {
		t.Errorf("%d exemplar admissions, %d of them logged", n, logged)
	}
}

func countsOf(s SegmentResult) (ok, rec, miss int) { return s.OK, s.Recovered, s.Missed }

// segProjection is the timebase-independent part of a segment's slack row:
// verdict tallies, the budget in force at the last arm, and the budget epoch
// it was armed under. Dwell times and overrun magnitudes are clock-specific
// and excluded on purpose.
type segProjection struct {
	name     string
	armed    uint64
	missed   uint64
	budgetNS int64
	epoch    uint64
}

func projectScope(t *testing.T, doc blame.Doc) (segs []segProjection, flows, missed uint64, exemplarActs []uint64, primaries []string) {
	t.Helper()
	if len(doc.Scopes) != 1 || doc.Scopes[0].Scope != "rt" {
		t.Fatalf("scopes = %+v, want exactly scope rt", doc.Scopes)
	}
	sc := doc.Scopes[0]
	for _, sg := range sc.Segments {
		segs = append(segs, segProjection{sg.Name, sg.Armed, sg.Missed, sg.BudgetNS, sg.Epoch})
	}
	for _, x := range sc.Exemplars {
		exemplarActs = append(exemplarActs, x.Act)
		primaries = append(primaries, x.Primary)
	}
	sort.Slice(exemplarActs, func(i, j int) bool { return exemplarActs[i] < exemplarActs[j] })
	sort.Strings(primaries)
	return segs, sc.Flows, sc.Missed, exemplarActs, primaries
}

// TestBlameCrossTimebaseEquivalenceWithActuations extends the blame engine's
// equivalence across the two mid-run deadline actuations of the runtime
// acceptance test: a wall-clock run and its virtual-time replica must agree
// on every timebase-independent projection of the attribution — per-segment
// armed/missed tallies, the budget each segment was last armed with, the
// budget epoch in force at that arm, scope flow counts, and the exemplar
// set. (The wall producer additionally traces dds-send/net hops the replica
// does not model, so hop-level magnitudes are clock-specific and excluded.)
func TestBlameCrossTimebaseEquivalenceWithActuations(t *testing.T) {
	cfg := testConfig()
	cfg.Swaps = []Swap{
		{Frame: 3, Segment: SegGround, DMon: 26 * time.Millisecond},
		{Frame: 5, Segment: SegGround, DMon: time.Millisecond},
	}

	wallSink := telemetry.NewSink(1 << 12)
	wallEng := blame.New(blame.Options{})
	wallEng.SetTimebase("wall")
	wallSink.Rec.SetObserver(wallEng.Feed)
	if _, err := Run(cfg, wallSink); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if t.Failed() {
			logPostGaps(t, wallSink.Rec)
		}
	}()
	wallEng.Flush()
	wallDoc := wallEng.Snapshot(blame.RecorderResolvers(wallSink.Rec))

	simSink := telemetry.NewSink(1 << 12)
	simEng := blame.New(blame.Options{})
	simEng.SetTimebase("sim")
	simSink.Rec.SetObserver(simEng.Feed)
	tracedSimReplica(cfg, simSink)
	simEng.Flush()
	simDoc := simEng.Snapshot(blame.RecorderResolvers(simSink.Rec))

	wallSegs, wallFlows, wallMissed, wallActs, wallPrim := projectScope(t, wallDoc)
	simSegs, simFlows, simMissed, simActs, simPrim := projectScope(t, simDoc)

	if wallFlows != simFlows || wallMissed != simMissed {
		t.Errorf("scope tallies: wall flows/missed = %d/%d, sim = %d/%d",
			wallFlows, wallMissed, simFlows, simMissed)
	}
	if len(wallSegs) != len(simSegs) {
		t.Fatalf("segment rows: wall %d vs sim %d", len(wallSegs), len(simSegs))
	}
	for i := range wallSegs {
		if wallSegs[i] != simSegs[i] {
			t.Errorf("segment projection diverges:\n  wall: %+v\n  sim:  %+v", wallSegs[i], simSegs[i])
		}
	}
	if wallDoc.Epoch != simDoc.Epoch || wallDoc.Epoch == 0 {
		t.Errorf("budget epochs: wall %d vs sim %d, want equal and > 0", wallDoc.Epoch, simDoc.Epoch)
	}
	// Ground's verdicts under the actuations are 3,5,6,7 missed; the default
	// top-K retains all four, so the exemplar sets must agree exactly.
	wantActs := []uint64{3, 5, 6, 7}
	for _, acts := range [][]uint64{wallActs, simActs} {
		if len(acts) != len(wantActs) {
			t.Fatalf("exemplar acts = %v, want %v", acts, wantActs)
		}
		for i := range wantActs {
			if acts[i] != wantActs[i] {
				t.Fatalf("exemplar acts = %v, want %v", acts, wantActs)
			}
		}
	}
	for i := range wallPrim {
		if wallPrim[i] != simPrim[i] {
			t.Errorf("exemplar primaries: wall %v vs sim %v", wallPrim, simPrim)
		}
		if wallPrim[i] != SegGround {
			t.Errorf("exemplar primary = %q, want %q (only ground overruns)", wallPrim[i], SegGround)
		}
	}
	// The last ground arm (frame 7) runs under the shrunk 1 ms budget; the
	// budget read from the events is deadline − post-start = DMon exactly,
	// independent of the clock.
	for _, sg := range wallSegs {
		if sg.name == SegGround && sg.budgetNS != int64(time.Millisecond) {
			t.Errorf("ground budget at last arm = %d ns, want %d", sg.budgetNS, int64(time.Millisecond))
		}
	}
}

// logPostGaps logs, per segment and activation, how long after its start
// the wall-clock producer posted the end. A gap past the segment's d_mon is
// a miss by timestamp that the replica's nominal schedule does not have: the
// host held the producer back, and the monitor judged the stamps correctly.
func logPostGaps(t *testing.T, rec *telemetry.Recorder) {
	t.Helper()
	for _, name := range []string{SegObjects, SegGround} {
		starts := map[uint64]int64{}
		gaps := ""
		for _, ev := range rec.Track(name + "/posts").Events() {
			switch ev.Kind {
			case telemetry.KindRingPostStart:
				starts[ev.Act] = ev.TS
			case telemetry.KindRingPostEnd:
				gaps += fmt.Sprintf(" %d:%v", ev.Act, time.Duration(ev.TS-starts[ev.Act]))
			}
		}
		t.Logf("%s end posted after its start:%s", name, gaps)
	}
}

// tracedSimReplica is equivalence_test's simReplica with telemetry attached:
// same zeroed costs, same injected schedule, plus the flow bindings and
// monitor probe the wall-clock run uses, so the blame engine sees the same
// arm/post/verdict/budget-swap event structure on virtual time.
func tracedSimReplica(cfg Config, sink *telemetry.Sink) {
	k := sim.NewKernel()
	d := dds.NewDomain(k, sim.NewRNG(cfg.Seed))
	d.KsoftirqCost = sim.Constant(0)
	d.DeliverCost = sim.Constant(0)
	ecu := d.NewECU("ecu", 2, vclock.Config{})
	ecu.Proc.CtxSwitch = sim.Constant(0)
	ecu.Proc.Wakeup = sim.Constant(0)

	mon := monitor.NewLocalMonitor(ecu)
	mon.PostCost = sim.Constant(0)
	mon.ScanCost = sim.Constant(0)
	var budget *monitor.BudgetTable
	if len(cfg.Swaps) > 0 {
		budget = monitor.NewBudgetTable()
		mon.AttachBudget(budget)
	}

	// Same flow-scope contract as Run: both segments share scope "rt", bound
	// before the monitor probe interns the segment names.
	sink.Rec.BindFlow(SegObjects, "rt")
	sink.Rec.BindFlow(SegGround, "rt")

	segs := make([]*monitor.LocalSegment, 0, 2)
	for _, name := range []string{SegObjects, SegGround} {
		segs = append(segs, mon.AddSegment(monitor.SegmentConfig{
			Name: name, DMon: sim.Duration(cfg.Deadline), DEx: sim.Millisecond,
			Period: sim.Duration(cfg.Period), Constraint: weaklyhard.Constraint{M: 1, K: 5},
		}))
	}
	mon.AttachTelemetry(sink, ecu.Name)
	objects, ground := segs[0], segs[1]

	for act := 0; act < cfg.Frames; act++ {
		a := uint64(act)
		at := sim.Time(act) * sim.Time(cfg.Period)
		ups := cfg.swapsFor(act)
		k.At(at, func() {
			if ups != nil {
				budget.Stage(ups)
			}
			objects.StartInjected(a)
			ground.StartInjected(a)
		})
		end := at + sim.Time(cfg.Work)
		k.At(end, func() { objects.EndInjected(a) })
		if cfg.LateEvery > 0 && act%cfg.LateEvery == cfg.LateEvery-1 {
			k.At(at+sim.Time(cfg.Period), func() { ground.EndInjected(a) })
		} else {
			k.At(end, func() { ground.EndInjected(a) })
		}
	}
	k.Run()
}
