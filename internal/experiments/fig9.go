package experiments

import (
	"fmt"
	"io"

	"chainmon/internal/parallel"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
	"chainmon/internal/stats"
	"chainmon/internal/trace"
)

// Fig9Result carries the quantities Figs. 9 and 10 report.
type Fig9Result struct {
	Frames int

	// Unmonitored segment latencies (left half of Fig. 9).
	ObjectsUnmon *stats.Sample
	GroundUnmon  *stats.Sample
	// Monitored segment latencies (right half of Fig. 9): end event or
	// handled exception, whichever occurs first — capped at d_mon + d_ex.
	ObjectsMon *stats.Sample
	GroundMon  *stats.Sample

	// Fig. 10: latencies of the temporal exception cases only.
	ObjectsExc *stats.Sample
	GroundExc  *stats.Sample
	// Detection latencies (deadline → handler entry).
	ObjectsDetect *stats.Sample
	GroundDetect  *stats.Sample

	ObjectsExcCount int
	GroundExcCount  int
	Deadline        sim.Duration

	// JointEntryGap is, over activations where both segments raised an
	// exception, the ground handler entry minus the objects handler entry.
	// The monitor thread processes the buffers in fixed order (objects
	// first), so the gap is positive — the Fig. 10 asymmetry.
	JointEntryGap *stats.Sample
}

// RunFig9 reproduces Figs. 9 and 10: segment latencies on ECU2 with and
// without monitoring (one unmonitored recording run, one monitored run with
// the paper's 100 ms segment deadline), and the exception-case latencies.
// The two runs are independent simulations and are sharded over the worker
// pool (workers ≤ 0: GOMAXPROCS; 1: serial).
func RunFig9(frames int, seed int64, workers int) Fig9Result {
	base := perception.DefaultConfig()
	base.Frames = frames
	base.Seed = seed

	unmon := base
	unmon.Monitored = false
	mon := base

	var tr *trace.Trace
	var sm *perception.System
	parallel.ForEach(workers, 2, func(shard int) {
		if shard == 0 {
			su := perception.Build(unmon)
			rec := su.RecordTrace()
			su.Run()
			tr = rec.Trace()
		} else {
			sm = perception.Build(mon)
			sm.Run()
		}
	})

	gap := stats.NewSample()
	objEntry := make(map[uint64]sim.Time)
	for _, res := range sm.SegObjects.Stats().Resolutions() {
		if res.Exception {
			objEntry[res.Activation] = res.HandlerEntry
		}
	}
	for _, res := range sm.SegGround.Stats().Resolutions() {
		if res.Exception {
			if oe, ok := objEntry[res.Activation]; ok {
				gap.AddDuration(res.HandlerEntry.Sub(oe))
			}
		}
	}

	return Fig9Result{
		JointEntryGap:   gap,
		Frames:          frames,
		ObjectsUnmon:    tr.Segment(perception.SegObjectsLocal).Sample(),
		GroundUnmon:     tr.Segment(perception.SegGroundLocal).Sample(),
		ObjectsMon:      sm.SegObjects.Stats().Latencies(),
		GroundMon:       sm.SegGround.Stats().Latencies(),
		ObjectsExc:      sm.SegObjects.Stats().ExceptionLatencies(),
		GroundExc:       sm.SegGround.Stats().ExceptionLatencies(),
		ObjectsDetect:   sm.SegObjects.Stats().DetectionLatencies(),
		GroundDetect:    sm.SegGround.Stats().DetectionLatencies(),
		ObjectsExcCount: sm.SegObjects.Stats().Exceptions(),
		GroundExcCount:  sm.SegGround.Stats().Exceptions(),
		Deadline:        base.LocalDeadline,
	}
}

// Report prints the Fig. 9 rows.
func (r Fig9Result) Report(w io.Writer) {
	section(w, "Figure 9 — Segment latencies on ECU2 with and without monitoring",
		fmt.Sprintf("%d activations per segment; monitored deadline d_mon = %v.\n"+
			"Paper: unmonitored latencies reach ~600 ms; with monitoring every\n"+
			"activation is bounded by the 100 ms deadline (plus bounded handling).",
			r.Frames, r.Deadline))
	row(w, "objects (no monitoring)", r.ObjectsUnmon)
	row(w, "ground  (no monitoring)", r.GroundUnmon)
	row(w, "objects (monitored)", r.ObjectsMon)
	row(w, "ground  (monitored)", r.GroundMon)
	fmt.Fprintln(w)
	fmt.Fprint(w, stats.RenderBoxplots(
		[]string{"objects (no monitoring)", "ground  (no monitoring)", "objects (monitored)", "ground  (monitored)"},
		[]stats.Boxplot{r.ObjectsUnmon.Tukey(), r.GroundUnmon.Tukey(), r.ObjectsMon.Tukey(), r.GroundMon.Tukey()},
		70))
}

// ReportFig10 prints the Fig. 10 rows.
func (r Fig9Result) ReportFig10(w io.Writer) {
	section(w, "Figure 10 — Segment latencies for the temporal exception cases",
		fmt.Sprintf("Exception cases: objects n=%d, ground n=%d (paper: 934 and 1699 of ~4700).\n"+
			"Latency = deadline + detection + handler entry; the ground segment is\n"+
			"processed after the objects segment by the same monitor thread, so its\n"+
			"exceptions are delayed by the objects handling (fixed buffer order).",
			r.ObjectsExcCount, r.GroundExcCount))
	row(w, "objects (exception cases)", r.ObjectsExc)
	row(w, "ground  (exception cases)", r.GroundExc)
	row(w, "objects detection latency", r.ObjectsDetect)
	row(w, "ground  detection latency", r.GroundDetect)
	fmt.Fprintln(w)
	fmt.Fprint(w, stats.RenderBoxplots(
		[]string{"objects (exception cases)", "ground  (exception cases)"},
		[]stats.Boxplot{r.ObjectsExc.Tukey(), r.GroundExc.Tukey()},
		70))
}
