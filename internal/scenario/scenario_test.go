package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"chainmon/internal/faultinject"
	"chainmon/internal/monitor"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
)

func TestLoadFullScenario(t *testing.T) {
	src := `{
		"seed": 7,
		"frames": 250,
		"period": "50ms",
		"local_deadline": "60ms",
		"remote_deadline": "15ms",
		"constraint": {"m": 1, "k": 8},
		"loss_prob": 0.02,
		"full_chain": true,
		"ecu2_cores": 4,
		"clock_epsilon": "25µs",
		"recovery": {"s0a/front-lidar": "holdover", "s0b/rear-lidar": "propagate"},
		"remote_variant": "dds-context"
	}`
	cfg, _, err := LoadFull(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Frames != 250 {
		t.Errorf("seed/frames = %d/%d", cfg.Seed, cfg.Frames)
	}
	if cfg.Period != 50*sim.Millisecond || cfg.LocalDeadline != 60*sim.Millisecond {
		t.Errorf("durations wrong: %v %v", cfg.Period, cfg.LocalDeadline)
	}
	if cfg.Constraint.M != 1 || cfg.Constraint.K != 8 {
		t.Errorf("constraint = %v", cfg.Constraint)
	}
	if cfg.Network.LossProb != 0.02 || !cfg.FullChain || cfg.ECU2Cores != 4 {
		t.Error("flags not applied")
	}
	if cfg.ClockEpsilon != 25*sim.Microsecond {
		t.Errorf("epsilon = %v", cfg.ClockEpsilon)
	}
	if cfg.RemoteVariant != monitor.VariantDDSContext {
		t.Error("variant not applied")
	}
	if cfg.Handlers["s0a/front-lidar"] == nil {
		t.Error("holdover handler missing")
	}
	if cfg.Handlers["s0b/rear-lidar"] != nil {
		t.Error("propagate should map to a nil handler")
	}
}

func TestLoadEmptyKeepsDefaults(t *testing.T) {
	cfg, _, err := LoadFull(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	def := perception.DefaultConfig()
	if cfg.Period != def.Period || cfg.Frames != def.Frames || cfg.Constraint != def.Constraint {
		t.Error("defaults not preserved")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"period": 100}`,                  // duration must be a string
		`{"period": "notaduration"}`,       // bad duration
		`{"constraint": {"m": 9, "k": 2}}`, // invalid (m,k)
		`{"loss_prob": 1.5}`,               // out of range
		`{"frames": -4}`,                   // negative
		`{"recovery": {"x": "teleport"}}`,  // unknown policy
		`{"remote_variant": "quantum"}`,    // unknown variant
		`{"unknown_field": true}`,          // strict decoding
		`{`,                                // malformed JSON
		`{"faults": [{"type": "warp"}]}`,   // unknown fault type
		// Strict decoding reaches into nested fault specs: a misspelled
		// campaign key must fail loudly, not silently keep defaults.
		`{"faults": [{"type": "overload", "ecu": "ecu2", "utilisation": 0.9}]}`,
	}
	for i, src := range cases {
		if _, _, err := LoadFull(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted: %s", i, src)
		}
	}
}

func TestLoadFullEmbeddedFaults(t *testing.T) {
	src := `{
		"frames": 100,
		"full_chain": true,
		"faults": [
			{"type": "latency-spike", "from": "1s",
			 "link_from": "ecu1", "link_to": "ecu2", "delay": "30ms"},
			{"type": "sensor-dropout", "from": "5s", "until": "6s",
			 "device": "front-lidar"}
		]
	}`
	cfg, camp, err := LoadFull(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.FullChain || cfg.Frames != 100 {
		t.Errorf("config not applied: %+v", cfg)
	}
	if len(camp.Faults) != 2 || camp.Faults[0].Type != faultinject.TypeLatencySpike {
		t.Fatalf("campaign not loaded: %+v", camp)
	}
	if sim.Duration(camp.Faults[0].Delay) != 30*sim.Millisecond {
		t.Errorf("delay = %v", sim.Duration(camp.Faults[0].Delay))
	}
}

func TestDurationRoundTrip(t *testing.T) {
	b, err := json.Marshal(Duration(150 * sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var d Duration
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	if sim.Duration(d) != 150*sim.Millisecond {
		t.Errorf("round trip = %v", sim.Duration(d))
	}
}

func TestScenarioRunsEndToEnd(t *testing.T) {
	cfg, _, err := LoadFull(strings.NewReader(`{
		"frames": 60,
		"full_chain": true,
		"loss_prob": 0.05,
		"recovery": {"s0a/front-lidar": "holdover", "s0b/rear-lidar": "holdover"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	s := perception.Build(cfg)
	s.Run()
	exec, _, _ := s.ChainFront.Totals()
	if exec == 0 {
		t.Error("scenario produced no chain executions")
	}
}

func TestHoldoverHandlerProducesRecovery(t *testing.T) {
	h, err := handlerFor(PolicyHoldover)
	if err != nil || h == nil {
		t.Fatal("holdover handler missing")
	}
	rec := h(&monitor.ExceptionContext{Activation: 3})
	if rec == nil || rec.Size == 0 {
		t.Error("holdover recovery empty")
	}
}
