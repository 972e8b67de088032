// Package online builds a run's online stack, on either timebase: the sink,
// the optional stream log, the live set with its drop sources, the blame
// engine, the /health meta section and the ECU2 pair's adaptive controller.
// The live surfaces are trustworthy only if they see exactly what the log
// records, and the calls that ensure it are order-sensitive.
package online

import (
	"fmt"
	"io"
	"net/http"

	"chainmon/internal/adaptive"
	"chainmon/internal/blame"
	"chainmon/internal/livestats"
	"chainmon/internal/monitor"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
)

// Opener opens a run's stream log on its timebase. The stack fills opt (the
// sink's registry for the chainmon_stream_* counters); the opener may add
// what it owns.
type Opener func(timebase string, opt telemetry.StreamOptions) (*telemetry.StreamWriter, error)

// Writer opens the stream log on w.
func Writer(w io.Writer) Opener {
	return func(timebase string, opt telemetry.StreamOptions) (*telemetry.StreamWriter, error) {
		return telemetry.NewStreamWriter(w, timebase, opt)
	}
}

// Stack is one run's online stack. Stream is nil without a log, and Blame
// is nil on the wall clock without a log.
type Stack struct {
	Sink            *telemetry.Sink
	Stream          *telemetry.StreamWriter
	Live            *livestats.Set
	Blame           *blame.Engine
	Health, Metrics http.Handler // serve /health and /metrics
}

// New builds the online stack of a run on timebase ("sim" or "wall") before
// the system is built, so the log (openLog may be nil) exists before the
// first track. meta, when non-nil, renders the /health meta section from the
// budget epoch blame observed. The sim writes the log inline; the wall
// clock's producers stage events for a background drainer, and without a log
// its sink is registry-only, with no blame and no meta section. Blame
// observes the log when there is one, so it sees exactly the events the log
// records (the byte-identity contract with "trace report -blame"), and the
// flight recorder otherwise. Every metrics export republishes the live and
// blame gauges, so a scrape and a snapshot agree.
func New(timebase string, openLog Opener, meta func(budgetEpoch uint64) any) (*Stack, error) {
	wall := timebase == "wall"
	st := &Stack{Live: livestats.NewSet(0)}
	if wall && openLog == nil {
		st.Sink = &telemetry.Sink{Reg: telemetry.NewRegistry()}
	} else {
		st.Sink = telemetry.NewSink(telemetry.DefaultTrackCap)
	}
	st.Health, st.Metrics = st.Live.Handler(), st.Sink.Handler()
	if openLog != nil {
		var err error
		if st.Stream, err = openLog(timebase, telemetry.StreamOptions{Metrics: st.Sink.Reg}); err != nil {
			return nil, err
		}
		st.Sink.Rec.SetStream(st.Stream)
	}
	st.Sink.AddExportHook(func() { st.Live.PublishMetrics(st.Sink.Reg) })
	rec := st.Sink.Rec
	if rec == nil {
		return st, nil
	}
	eng := blame.New(blame.Options{})
	eng.SetTimebase(timebase)
	st.Live.AddDropSource("flight-recorder", rec.Dropped)
	if st.Stream != nil {
		st.Live.AddDropSource("trace-stream", st.Stream.Dropped)
		st.Stream.SetObserver(eng.Feed)
	} else {
		rec.SetObserver(eng.Feed)
	}
	st.Blame = eng
	st.Sink.AddExportHook(func() { eng.PublishMetrics(st.Sink.Reg, blame.RecorderResolvers(rec)) })
	st.Live.SetBlameProvider(func() any { return eng.Snapshot(blame.RecorderResolvers(rec)) })
	if meta != nil {
		st.Live.SetMetaProvider(func() any { return meta(eng.Epoch()) })
	}
	return st, nil
}

// Close finishes the run once its producers have quiesced, in one order
// on both timebases: the log's staging rings drain through blame (the sim
// stages nothing), so blame has seen every event, as an offline replay
// has; blame settles; its exemplars, the final settle's among them, are
// logged; then the log closes. It returns the log's close error.
func (st *Stack) Close() error {
	if st.Stream != nil {
		st.Stream.Drain()
	}
	if st.Blame != nil {
		st.Blame.Flush()
		st.Blame.FlushExemplars(st.Sink.Rec.Track("blame-exemplar"))
	}
	if st.Stream == nil {
		return nil
	}
	return st.Stream.Close()
}

// ControlECU2 attaches the adaptive budget loop to the ECU2 pair, the
// objects and ground evaluation segments of s, ticking every interval of
// virtual time up to the last frame. Both start at the local deadline d,
// clamped to [d/20, d], with d_ex 1 ms; the end-to-end budget 2(d + 1 ms) +
// d/5 leaves both at Max with 10% headroom, so the clamps bind. On a full
// chain the front chain's burn state gates rollback. A system without ECU2
// monitoring gets no controller.
func (st *Stack) ControlECU2(s *perception.System, hysteresis float64, interval sim.Duration) (*adaptive.Controller, error) {
	if s.MonECU2 == nil {
		return nil, nil
	}
	table := monitor.NewBudgetTable()
	s.MonECU2.AttachBudget(table)
	cfg, chain, d := s.Cfg, "", s.Cfg.LocalDeadline
	if cfg.FullChain {
		chain = s.ChainFront.Name
	}
	var specs []adaptive.SegmentSpec
	for _, name := range []string{perception.SegObjectsLocal, perception.SegGroundLocal} {
		specs = append(specs, adaptive.SegmentSpec{Name: name, Propagation: 1, Initial: d, Min: d / 20, Max: d})
	}
	ctrl, err := adaptive.New(adaptive.Config{
		Set: st.Live, Table: table, Chain: chain, Segments: specs,
		DEx: sim.Millisecond, Be2e: 2*(d+sim.Millisecond) + d/5, Constraint: cfg.Constraint,
		Guard: adaptive.Guardrails{Hysteresis: hysteresis}, Sink: st.Sink,
	})
	if err != nil {
		return nil, fmt.Errorf("building adaptive controller: %w", err)
	}
	ctrl.ScheduleSim(s.K, interval, sim.Time(cfg.Frames)*sim.Time(cfg.Period))
	return ctrl, nil
}
