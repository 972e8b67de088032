package experiments

import (
	"bytes"
	"strings"
	"testing"

	"chainmon/internal/sim"
)

func TestEpsilonAblation(t *testing.T) {
	rows := RunEpsilonAblation(200, 7, []sim.Duration{
		0, 50 * sim.Microsecond, 200 * sim.Microsecond, 500 * sim.Microsecond,
	}, 2)
	for _, r := range rows {
		// The paper's formula (ε included) never produces false positives.
		if r.CompensatedFalsePos != 0 {
			t.Errorf("ε=%v: %d false positives despite the ε term", r.Epsilon, r.CompensatedFalsePos)
		}
	}
	// Without the ε term, large clock errors must produce false positives.
	last := rows[len(rows)-1]
	if last.UncompensatedFalsePos == 0 {
		t.Errorf("ε=%v without compensation produced no false positives — ε term untested", last.Epsilon)
	}
	// And at ε=0 both variants agree (no error to compensate).
	if rows[0].UncompensatedFalsePos != 0 {
		t.Errorf("ε=0 produced %d false positives", rows[0].UncompensatedFalsePos)
	}
	var buf bytes.Buffer
	ReportEpsilonAblation(&buf, rows)
	if !strings.Contains(buf.String(), "ε term") {
		t.Error("missing report")
	}
}

func TestDeadlineSweepMonotone(t *testing.T) {
	rows := RunDeadlineSweep(200, 8, []sim.Duration{
		60 * sim.Millisecond, 100 * sim.Millisecond, 140 * sim.Millisecond,
	}, 2)
	for i := 1; i < len(rows); i++ {
		if rows[i].ObjectsMisses > rows[i-1].ObjectsMisses {
			t.Errorf("objects misses rose with a looser deadline: %d@%v → %d@%v",
				rows[i-1].ObjectsMisses, rows[i-1].DMon, rows[i].ObjectsMisses, rows[i].DMon)
		}
		if rows[i].GroundMisses > rows[i-1].GroundMisses {
			t.Errorf("ground misses rose with a looser deadline")
		}
	}
	// The monitored latency cap follows the deadline.
	for _, r := range rows {
		if r.MaxLatency > r.DMon+5*sim.Millisecond {
			t.Errorf("max latency %v exceeds deadline %v bound", r.MaxLatency, r.DMon)
		}
	}
	var buf bytes.Buffer
	ReportDeadlineSweep(&buf, rows)
	if !strings.Contains(buf.String(), "d_mon") {
		t.Error("missing report")
	}
}

func TestMigrationAblation(t *testing.T) {
	rows := RunMigrationAblation(300, 10, 1)
	if len(rows) != 3 {
		t.Fatal("want three rows")
	}
	global, colocated := rows[0], rows[2]
	for _, r := range rows {
		if r.Activations < 290 {
			t.Fatalf("%s lost activations: %d", r.Scheduling, r.Activations)
		}
	}
	// Colocating the heavy services on one core must lengthen the tail
	// dramatically relative to free migration.
	if colocated.ObjectsP99 <= global.ObjectsP99 {
		t.Errorf("colocated p99 %v not worse than global %v", colocated.ObjectsP99, global.ObjectsP99)
	}
	if colocated.ObjectsMisses <= global.ObjectsMisses {
		t.Errorf("colocated misses %d not worse than global %d",
			colocated.ObjectsMisses, global.ObjectsMisses)
	}
	var buf bytes.Buffer
	ReportMigrationAblation(&buf, rows)
	checkGolden(t, "migration_report.golden", buf.String())
}

func TestOrderAblationFlipsGap(t *testing.T) {
	rows := RunOrderAblation(300, 9, 1)
	if len(rows) != 2 {
		t.Fatal("want two rows")
	}
	paper, flipped := rows[0], rows[1]
	if paper.JointCount == 0 || flipped.JointCount == 0 {
		t.Fatal("no joint exceptions observed")
	}
	if paper.MeanJointGap <= 0 {
		t.Errorf("objects-first: ground should enter later (gap %v)", paper.MeanJointGap)
	}
	if flipped.MeanJointGap >= 0 {
		t.Errorf("ground-first: objects should enter later (gap %v)", flipped.MeanJointGap)
	}
	var buf bytes.Buffer
	ReportOrderAblation(&buf, rows)
	if !strings.Contains(buf.String(), "order") {
		t.Error("missing report")
	}
}
