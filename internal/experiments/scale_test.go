package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/pilot"
)

// TestScaleSweepSmall runs the sweep at reduced scales and pins its
// structural invariants plus the BENCH-document shape.
func TestScaleSweepSmall(t *testing.T) {
	scales := []int{50, 150}
	rows, err := RunScaleSweep(42, scales)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckScaleSweep(rows, scales); err != nil {
		t.Fatal(err)
	}
	// The capacity-indexed bind loop offers each unit roughly twice
	// (once fresh, once when capacity admits it) plus a full re-offer
	// per pilot event. Every unit must still be offered at least once,
	// and the old every-kick amplification (thousands of offers per
	// unit) must not creep back.
	for _, r := range rows {
		if r.Offered < int64(r.Units) {
			t.Errorf("scale %d: offered %d < units", r.Units, r.Offered)
		}
		if r.Offered > 20*int64(r.Units) {
			t.Errorf("scale %d: offered %d exceeds 20x units — rescan amplification is back",
				r.Units, r.Offered)
		}
	}

	var buf bytes.Buffer
	if err := WriteScaleBenchJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		CPU        string `json:"cpu"`
		Benchmarks []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("BENCH document not valid JSON: %v", err)
	}
	if doc.CPU != hostCPU() {
		t.Errorf("cpu = %q; want the host's %q", doc.CPU, hostCPU())
	}
	if len(doc.Benchmarks) != len(scales) {
		t.Fatalf("benchmarks = %d; want %d", len(doc.Benchmarks), len(scales))
	}
	for i, b := range doc.Benchmarks {
		if !strings.Contains(b.Name, "BenchmarkScaleSweep/units=") {
			t.Errorf("benchmark %d name %q", i, b.Name)
		}
		for _, key := range []string{"units/sec", "sim-sec", "bind-passes"} {
			if _, ok := b.Metrics[key]; !ok {
				t.Errorf("benchmark %s missing metric %s", b.Name, key)
			}
		}
	}

	var table strings.Builder
	WriteScaleSweep(&table, rows)
	if !strings.Contains(table.String(), "units/sec") {
		t.Error("sweep table missing header")
	}
}

// TestScaleSweepLargeTier runs the 10⁵-unit cell end to end — the tier
// the committed BENCH_scale.json regression gate guards. It costs tens
// of seconds of wall time, so -short skips it.
func TestScaleSweepLargeTier(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-unit sweep tier skipped in -short mode")
	}
	scales := []int{100_000}
	rows, err := RunScaleSweep(42, scales)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckScaleSweep(rows, scales); err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Offered > 20*int64(r.Units) {
		t.Errorf("offered %d exceeds 20x units at 10⁵ — rescan amplification is back", r.Offered)
	}
}

// TestScaleSweepDeterministicVirtualTime: virtual-time results must be
// identical run to run for the same seed (wall-clock fields may vary).
func TestScaleSweepDeterministicVirtualTime(t *testing.T) {
	run := func() *ScaleRow {
		rows, err := RunScaleSweep(7, []int{120})
		if err != nil {
			t.Fatal(err)
		}
		return rows[0]
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Errorf("makespan varies: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.BindPasses != b.BindPasses || a.Offered != b.Offered {
		t.Errorf("bind stats vary: %d/%d vs %d/%d", a.BindPasses, a.Offered, b.BindPasses, b.Offered)
	}
	if a.TurnP50 != b.TurnP50 || a.TurnP95 != b.TurnP95 {
		t.Errorf("turnaround percentiles vary: %v/%v vs %v/%v", a.TurnP50, a.TurnP95, b.TurnP50, b.TurnP95)
	}
	if a.BindMean != b.BindMean {
		t.Errorf("bind mean varies: %v vs %v", a.BindMean, b.BindMean)
	}
	if a.Events != b.Events {
		t.Errorf("event counts vary: %d vs %d", a.Events, b.Events)
	}
}

// TestScaleSweepFeedsInstalledRegistry: with a registry installed, the
// sweep's events accumulate into it — the live-endpoint path.
func TestScaleSweepFeedsInstalledRegistry(t *testing.T) {
	reg := pilot.NewMetricsRegistry()
	SetMetricsRegistry(reg)
	defer SetMetricsRegistry(nil)
	if _, err := RunScaleSweep(42, []int{60}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Total("pilot_units_done"); got != 60 {
		t.Fatalf("installed registry units_done = %v; want 60", got)
	}
}
