package scenario

import (
	"strings"
	"testing"
)

// FuzzLoad checks that arbitrary scenario input never panics the loader and
// that accepted configurations are structurally sane.
func FuzzLoad(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"frames": 100, "period": "50ms"}`)
	f.Add(`{"constraint": {"m": 1, "k": 5}, "recovery": {"x": "holdover"}}`)
	f.Add(`{"partition": "balanced", "remote_variant": "dds-context"}`)
	f.Add(`{"loss_prob": 0.5, "clock_epsilon": "50µs"}`)
	f.Fuzz(func(t *testing.T, input string) {
		cfg, _, err := LoadFull(strings.NewReader(input))
		if err != nil {
			return
		}
		if cfg.Frames < 0 {
			t.Fatal("accepted negative frames")
		}
		if cfg.Network.LossProb < 0 || cfg.Network.LossProb > 1 {
			t.Fatalf("accepted loss probability %f", cfg.Network.LossProb)
		}
		if !cfg.Constraint.Valid() {
			t.Fatalf("accepted invalid constraint %v", cfg.Constraint)
		}
	})
}
