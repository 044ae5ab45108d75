package metrics_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// bagTelemetryRegistry builds the registry a bag of 1-core units on 16
// backfill-scheduled HPC pilots leaves behind: the Bridge instrument set
// fed with each pilot's lifecycle and 64 unit lifecycles per pilot.
func bagTelemetryRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	b := obs.NewBridge(reg)
	at := time.Duration(0)
	ev := func(e obs.Event) {
		at += 10 * time.Millisecond
		e.At = at
		b.Apply(e)
	}
	for p := 1; p <= 16; p++ {
		pilot := fmt.Sprintf("pilot.%04d", p)
		for _, st := range []string{"PMGR_LAUNCHING", "PMGR_ACTIVE"} {
			ev(obs.Event{Kind: obs.KindPilotState, Pilot: pilot, State: st})
		}
		for u := 0; u < 64; u++ {
			unit := fmt.Sprintf("unit.%04d.%06d", p, u)
			ev(obs.Event{Kind: obs.KindUnitState, Unit: unit, State: "UMGR_SCHEDULING", Cores: 1})
			ev(obs.Event{Kind: obs.KindBind, Unit: unit, Pilot: pilot, Policy: "backfill"})
			for _, st := range []string{"AGENT_SCHEDULING", "AGENT_EXECUTING", "DONE"} {
				ev(obs.Event{Kind: obs.KindUnitState, Unit: unit, Pilot: pilot, State: st, Cores: 1})
			}
		}
	}
	return reg
}

// BenchmarkWritePrometheus measures one /metrics exposition of a
// bag-telemetry-shaped registry.
func BenchmarkWritePrometheus(b *testing.B) {
	reg := bagTelemetryRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
