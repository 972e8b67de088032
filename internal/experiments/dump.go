package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"chainmon/internal/stats"
)

// DumpCSV writes one sample per named column into dir/<name>.csv (one value
// per row, nanoseconds), for external plotting of the figures. Missing
// directories are created.
func DumpCSV(dir string, samples map[string]*stats.Sample) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: creating dump dir: %w", err)
	}
	for name, s := range samples {
		if s == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return fmt.Errorf("experiments: creating %s: %w", name, err)
		}
		fmt.Fprintln(f, "latency_ns")
		for _, v := range s.Values() {
			fmt.Fprintf(f, "%.0f\n", v)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Samples exposes the Fig. 9/10 samples for dumping.
func (r Fig9Result) Samples() map[string]*stats.Sample {
	return map[string]*stats.Sample{
		"fig9_objects_unmonitored": r.ObjectsUnmon,
		"fig9_ground_unmonitored":  r.GroundUnmon,
		"fig9_objects_monitored":   r.ObjectsMon,
		"fig9_ground_monitored":    r.GroundMon,
		"fig10_objects_exceptions": r.ObjectsExc,
		"fig10_ground_exceptions":  r.GroundExc,
		"fig10_objects_detection":  r.ObjectsDetect,
		"fig10_ground_detection":   r.GroundDetect,
	}
}

// Samples exposes the Fig. 11 samples for dumping.
func (r Fig11Result) Samples() map[string]*stats.Sample {
	return map[string]*stats.Sample{
		"fig11_start_post":  r.StartPost,
		"fig11_end_post":    r.EndPost,
		"fig11_mon_latency": r.MonLatency,
		"fig11_mon_exec":    r.MonExec,
		"fig11_detection":   r.Detection,
	}
}

// Samples exposes the Fig. 12 samples for dumping.
func (r Fig12Result) Samples() map[string]*stats.Sample {
	out := make(map[string]*stats.Sample, len(r.Entries))
	for i, key := range r.order {
		out[fmt.Sprintf("fig12_%02d_%s", i, sanitize(key))] = r.Entries[key]
	}
	return out
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
