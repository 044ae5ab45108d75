package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden from the current output")

// goldenRegistry builds a registry covering every exposition path: label
// values that need escaping, help text with a newline, a label-less
// gauge, a counter with several series, a two-label histogram on the
// default buckets and a label-less one on custom buckets.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	done := reg.Counter("pilot_units_done", "units finished", "pilot", "scheduler")
	done.Add(7, "pilot.0001", "backfill")
	done.Inc("pilot.0002", "backfill")
	done.Add(2, `we"ird\pi`+"\nlot", "round-robin")
	done.Add(0.5, "pilot.0001", "cache")

	held := reg.Gauge("pilot_units_held", "held units\nacross all pilots")
	held.Add(3)
	held.Add(-1)

	reg.Gauge("idle_gauge", "")

	run := reg.Gauge("pilot_units_running", "units executing", "pilot")
	run.Set(-2.25, "pilot.0001")
	run.Set(1e21, "pilot.0002")

	lat := reg.Histogram("bind_latency_seconds", "bind latency", nil, "pilot", "scheduler")
	for _, v := range []float64{0.0004, 0.003, 0.2, 7, 7, 30, 5000} {
		lat.Observe(v, "pilot.0001", "backfill")
	}
	lat.Observe(0.1, `a"b\c`+"\n", "backfill")

	custom := reg.Histogram("stage_bytes", "staged bytes", []float64{0.5, 1024, 1e9})
	custom.Observe(100)
	custom.Observe(2e9)
	custom.Observe(0.25)
	return reg
}

// TestExpositionGolden pins the Prometheus text exposition byte for
// byte. Regenerate with `go test -run ExpositionGolden ./internal/metrics
// -update` only for an intended format change.
func TestExpositionGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("exposition differs from %s:\ngot:\n%s\nwant:\n%s", path, b.Bytes(), want)
	}
}
