// Package scenario loads perception-scenario descriptions from JSON, so
// experiments can be configured declaratively (cmd/chainmon -config). All
// durations are strings in Go syntax ("100ms", "50µs").
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"chainmon/internal/faultinject"
	"chainmon/internal/monitor"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
	"chainmon/internal/weaklyhard"
)

// Duration marshals as a Go duration string.
type Duration sim.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"100ms\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("scenario: parsing duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Recovery policies selectable by name.
const (
	PolicyPropagate = "propagate"
	PolicyHoldover  = "holdover"
)

// File is the JSON scenario schema. Zero fields keep the defaults of
// perception.DefaultConfig().
type File struct {
	Seed           int64    `json:"seed,omitempty"`
	Frames         int      `json:"frames,omitempty"`
	Period         Duration `json:"period,omitempty"`
	LocalDeadline  Duration `json:"local_deadline,omitempty"`
	RemoteDeadline Duration `json:"remote_deadline,omitempty"`
	Constraint     *struct {
		M int `json:"m"`
		K int `json:"k"`
	} `json:"constraint,omitempty"`
	LossProb     float64  `json:"loss_prob,omitempty"`
	FullChain    bool     `json:"full_chain,omitempty"`
	ECU1Cores    int      `json:"ecu1_cores,omitempty"`
	ECU2Cores    int      `json:"ecu2_cores,omitempty"`
	ClockEpsilon Duration `json:"clock_epsilon,omitempty"`
	RealCompute  bool     `json:"real_compute,omitempty"`
	GroundFirst  bool     `json:"ground_first,omitempty"`
	// Partition: "" (free migration), "balanced" or "colocated".
	Partition string `json:"partition,omitempty"`
	// Recovery maps segment names (e.g. "s0a/front-lidar") to a policy:
	// "propagate" (default) or "holdover" (recover with a repeated frame).
	Recovery map[string]string `json:"recovery,omitempty"`
	// RemoteVariant: "monitor-thread" (default) or "dds-context".
	RemoteVariant string `json:"remote_variant,omitempty"`
	// Faults is an embedded fault campaign applied to the built system
	// (see internal/faultinject for the per-type fields).
	Faults []faultinject.Spec `json:"faults,omitempty"`
}

// LoadFull reads a scenario plus its embedded fault campaign. The campaign
// may be empty (no "faults" key); it is validated either way.
func LoadFull(r io.Reader) (perception.Config, faultinject.Campaign, error) {
	cfg := perception.DefaultConfig()
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return cfg, faultinject.Campaign{}, fmt.Errorf("scenario: %w", err)
	}
	camp := faultinject.Campaign{Name: "scenario", Faults: f.Faults}
	if err := camp.Validate(); err != nil {
		return cfg, camp, fmt.Errorf("scenario: %w", err)
	}
	cfg, err := Apply(cfg, f)
	return cfg, camp, err
}

// Apply merges a scenario file over a base configuration.
func Apply(cfg perception.Config, f File) (perception.Config, error) {
	if f.Seed != 0 {
		cfg.Seed = f.Seed
	}
	if f.Frames != 0 {
		if f.Frames < 0 {
			return cfg, fmt.Errorf("scenario: negative frames %d", f.Frames)
		}
		cfg.Frames = f.Frames
	}
	if f.Period != 0 {
		cfg.Period = sim.Duration(f.Period)
	}
	if f.LocalDeadline != 0 {
		cfg.LocalDeadline = sim.Duration(f.LocalDeadline)
	}
	if f.RemoteDeadline != 0 {
		cfg.RemoteDeadline = sim.Duration(f.RemoteDeadline)
	}
	if f.Constraint != nil {
		c := weaklyhard.Constraint{M: f.Constraint.M, K: f.Constraint.K}
		if !c.Valid() {
			return cfg, fmt.Errorf("scenario: invalid constraint (%d,%d)", c.M, c.K)
		}
		cfg.Constraint = c
	}
	if f.LossProb != 0 {
		if f.LossProb < 0 || f.LossProb > 1 {
			return cfg, fmt.Errorf("scenario: loss_prob %f out of [0,1]", f.LossProb)
		}
		cfg.Network.LossProb = f.LossProb
	}
	cfg.FullChain = cfg.FullChain || f.FullChain
	if f.ECU1Cores != 0 {
		cfg.ECU1Cores = f.ECU1Cores
	}
	if f.ECU2Cores != 0 {
		cfg.ECU2Cores = f.ECU2Cores
	}
	if f.ClockEpsilon != 0 {
		cfg.ClockEpsilon = sim.Duration(f.ClockEpsilon)
	}
	cfg.RealCompute = cfg.RealCompute || f.RealCompute
	cfg.GroundFirst = cfg.GroundFirst || f.GroundFirst
	switch f.Partition {
	case "", "balanced", "colocated":
		if f.Partition != "" {
			cfg.Partition = f.Partition
		}
	default:
		return cfg, fmt.Errorf("scenario: unknown partition %q", f.Partition)
	}

	switch f.RemoteVariant {
	case "", "monitor-thread":
		cfg.RemoteVariant = monitor.VariantMonitorThread
	case "dds-context":
		cfg.RemoteVariant = monitor.VariantDDSContext
	default:
		return cfg, fmt.Errorf("scenario: unknown remote_variant %q", f.RemoteVariant)
	}

	if len(f.Recovery) > 0 {
		if cfg.Handlers == nil {
			cfg.Handlers = make(map[string]monitor.Handler)
		}
		for seg, policy := range f.Recovery {
			h, err := handlerFor(policy)
			if err != nil {
				return cfg, err
			}
			cfg.Handlers[seg] = h
		}
	}
	return cfg, nil
}

func handlerFor(policy string) (monitor.Handler, error) {
	switch policy {
	case PolicyPropagate:
		return nil, nil
	case PolicyHoldover:
		return perception.HoldOver, nil
	default:
		return nil, fmt.Errorf("scenario: unknown recovery policy %q", policy)
	}
}
