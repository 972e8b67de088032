package main

import (
	"bytes"
	"fmt"
	"net/http"

	"chainmon/internal/adaptive"
	"chainmon/internal/monitor"
	"chainmon/internal/online"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
)

// midRunStack runs seed's full chain for frames frames of a run twice that
// long, with every online layer attached as `chainmon -full -recover
// -adaptive -trace-stream` wires them (the online stack over an in-memory
// stream, the ECU2 pair's adaptive controller, the supervisor), and returns
// its /health and /metrics handlers.
func midRunStack(seed int64, frames int) (health, metrics http.Handler, err error) {
	cfg := perception.DefaultConfig()
	cfg.Seed = seed
	cfg.Frames = 2 * frames
	cfg.FullChain = true
	cfg.Handlers = map[string]monitor.Handler{
		perception.SegFrontRemote: perception.HoldOver,
		perception.SegRearRemote:  perception.HoldOver,
	}

	st, err := online.New("sim", online.Writer(&bytes.Buffer{}), func(epoch uint64) any {
		return map[string]any{"scenario": "perception", "budget_epoch": epoch}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("starting stream: %w", err)
	}
	s := perception.Build(cfg)
	perception.AttachTelemetry(s, st.Sink)
	perception.AttachLive(s, st.Live)
	if _, err := st.ControlECU2(s, adaptive.DefaultHysteresis, sim.Second); err != nil {
		return nil, nil, err
	}
	sup := monitor.NewSupervisor(s.K, 5)
	sup.Watch(s.ChainFront)
	sup.Watch(s.ChainRear)
	sup.AttachTelemetry(st.Sink)

	s.K.At(sim.Time(cfg.Frames)*sim.Time(cfg.Period)/2, s.K.Stop)
	s.Run()
	return st.Health, st.Metrics, nil
}

// discard is an http.ResponseWriter that drops the body.
type discard struct{ h http.Header }

func (w discard) Header() http.Header       { return w.h }
func (discard) WriteHeader(int)             {}
func (discard) Write(p []byte) (int, error) { return len(p), nil }
