package main

import (
	"bytes"
	"fmt"
	"net/http"

	"chainmon/internal/adaptive"
	"chainmon/internal/blame"
	"chainmon/internal/livestats"
	"chainmon/internal/monitor"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
)

// midRunStack runs seed's full chain for frames frames of a run twice that
// long, with every online layer attached as `chainmon -full -recover
// -adaptive -trace-stream` wires them (sink, in-memory stream, live set,
// blame on the stream observer, adaptive controller, supervisor), and
// returns its /health and /metrics handlers.
func midRunStack(seed int64, frames int) (health, metrics http.Handler, err error) {
	cfg := perception.DefaultConfig()
	cfg.Seed = seed
	cfg.Frames = 2 * frames
	cfg.FullChain = true
	cfg.Handlers = map[string]monitor.Handler{
		perception.SegFrontRemote: perception.HoldOver,
		perception.SegRearRemote:  perception.HoldOver,
	}

	sink := telemetry.NewSink(telemetry.DefaultTrackCap)
	sw, err := telemetry.NewStreamWriter(&bytes.Buffer{}, "sim", telemetry.StreamOptions{Metrics: sink.Reg})
	if err != nil {
		return nil, nil, fmt.Errorf("starting stream: %w", err)
	}
	sink.Rec.SetStream(sw)
	live := livestats.NewSet(0)
	sink.AddExportHook(func() { live.PublishMetrics(sink.Reg) })
	live.AddDropSource("flight-recorder", sink.Rec.Dropped)
	live.AddDropSource("trace-stream", sw.Dropped)
	eng := blame.New(blame.Options{})
	eng.SetTimebase("sim")
	sw.SetObserver(eng.Feed)
	sink.AddExportHook(func() { eng.PublishMetrics(sink.Reg, blame.RecorderResolvers(sink.Rec)) })
	live.SetBlameProvider(func() any { return eng.Snapshot(blame.RecorderResolvers(sink.Rec)) })
	live.SetMetaProvider(func() any {
		return map[string]any{"scenario": "perception", "budget_epoch": eng.Epoch()}
	})

	s := perception.Build(cfg)
	perception.AttachTelemetry(s, sink)
	perception.AttachLive(s, live)
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
		return nil, nil, fmt.Errorf("building adaptive controller: %w", err)
	}
	horizon := sim.Time(cfg.Frames) * sim.Time(cfg.Period)
	ctrl.ScheduleSim(s.K, sim.Second, horizon)
	sup := monitor.NewSupervisor(s.K, 5)
	sup.Watch(s.ChainFront)
	sup.Watch(s.ChainRear)
	sup.AttachTelemetry(sink)

	s.K.At(horizon/2, s.K.Stop)
	s.Run()
	return live.Handler(), sink.Handler(), nil
}

// discard is an http.ResponseWriter that drops the body.
type discard struct{ h http.Header }

func (w discard) Header() http.Header       { return w.h }
func (discard) WriteHeader(int)             {}
func (discard) Write(p []byte) (int, error) { return len(p), nil }
