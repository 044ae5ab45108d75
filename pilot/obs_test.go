package pilot_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpc"
	"repro/internal/sim"
	"repro/pilot"
)

// TestRecorderEndToEnd drives a small workload through the public API
// with a flight recorder attached and checks the event stream carries
// the full causal chain: pilot states, bind decisions, unit states, the
// scheduler invariants, live gauges and the Chrome trace export.
func TestRecorderEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	rec := pilot.NewRecorder(eng)
	m := cluster.New(eng, testSpec(2))
	b := hpc.NewBatch(m, hpc.Config{
		SchedCycle:      10 * time.Second,
		Prolog:          2 * time.Second,
		MinQueueWait:    time.Second,
		DefaultWallTime: 4 * time.Hour,
		Seed:            3,
	})
	s := pilot.NewSession(eng,
		pilot.WithProfile(fastProfile()), pilot.WithSeed(42), pilot.WithRecorder(rec))
	if s.Recorder() != rec {
		t.Fatal("WithRecorder did not attach the recorder")
	}
	if err := s.AddResource(&pilot.Resource{Name: "tm", Machine: m, Batch: b}); err != nil {
		t.Fatal(err)
	}
	e := &testEnv{eng: eng, machine: m, session: s}
	const units = 4
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(s)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			t.Error(err)
			return
		}
		pl.WaitState(p, pilot.PilotActive)
		um := newUM(t, s)
		um.AddPilot(pl)
		var descs []pilot.ComputeUnitDescription
		for i := 0; i < units; i++ {
			descs = append(descs, pilot.ComputeUnitDescription{
				Cores: 2,
				Body:  func(bp *sim.Proc, ctx *pilot.UnitContext) { bp.Sleep(5 * time.Second) },
			})
		}
		us, err := um.Submit(p, descs)
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, us)
		pl.Cancel()
	})

	events := rec.Events()
	if pilot.DoneUnits(events) != units {
		t.Fatalf("DONE units in stream = %d, want %d", pilot.DoneUnits(events), units)
	}
	if got := rec.Count(pilot.EventBind); got != units {
		t.Errorf("bind events = %d, want %d", got, units)
	}
	if rec.Count(pilot.EventPilotState) == 0 {
		t.Error("no pilot-state events recorded")
	}
	if err := pilot.VerifyBinds(events); err != nil {
		t.Errorf("bind invariants: %v", err)
	}
	// Every bind names the policy and a pilot; unit DONE events carry
	// the bound pilot so the trace exporter can track them.
	for _, ev := range events {
		if ev.Kind == pilot.EventBind && (ev.Pilot == "" || ev.Policy == "") {
			t.Fatalf("bind event missing pilot/policy: %+v", ev)
		}
		if ev.Kind == pilot.EventUnitState && ev.State == "DONE" && ev.Pilot == "" {
			t.Fatalf("DONE unit-state event missing pilot: %+v", ev)
		}
	}

	series := rec.Series()
	if series.Len() == 0 {
		t.Fatal("no gauge samples recorded")
	}
	peakRunning := 0
	for _, g := range series.Samples() {
		if g.RunningUnits > peakRunning {
			peakRunning = g.RunningUnits
		}
	}
	if peakRunning == 0 {
		t.Error("gauges never saw a running unit")
	}
	if last := series.Last(); last.RunningUnits != 0 || last.QueueDepth != 0 {
		t.Errorf("final gauge sample not drained: %+v", last)
	}

	var buf bytes.Buffer
	if err := pilot.WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	spans := 0
	for _, te := range tf.TraceEvents {
		if te.Ph == "X" {
			spans++
		}
	}
	if spans != units {
		t.Fatalf("trace spans = %d, want %d (== completed units)", spans, units)
	}
}

// TestRecorderOffNoRecorder pins the opt-in contract: a session without
// WithRecorder has no recorder attached.
func TestRecorderOffNoRecorder(t *testing.T) {
	e := newTestEnv(t, 1)
	if e.session.Recorder() != nil {
		t.Fatal("session without WithRecorder has a recorder attached")
	}
}

// TestRecorderIsolation runs two sessions on one engine, each with its
// own recorder, and drives a unit on the first only. Every event of that
// run must land in the first session's recorder and none in the second:
// a recorder observes the session it is attached to, never the engine.
func TestRecorderIsolation(t *testing.T) {
	eng := sim.NewEngine()
	m := cluster.New(eng, testSpec(2))
	b := hpc.NewBatch(m, hpc.Config{
		SchedCycle:      10 * time.Second,
		Prolog:          2 * time.Second,
		MinQueueWait:    time.Second,
		DefaultWallTime: 4 * time.Hour,
		Seed:            3,
	})
	recA, recB := pilot.NewRecorder(eng), pilot.NewRecorder(eng)
	sA := pilot.NewSession(eng,
		pilot.WithProfile(fastProfile()), pilot.WithSeed(42), pilot.WithRecorder(recA))
	pilot.NewSession(eng, pilot.WithProfile(fastProfile()), pilot.WithSeed(43), pilot.WithRecorder(recB))
	if err := sA.AddResource(&pilot.Resource{Name: "tm", Machine: m, Batch: b}); err != nil {
		t.Fatal(err)
	}
	e := &testEnv{eng: eng, machine: m, session: sA}
	var u *pilot.Unit
	e.run(t, func(p *sim.Proc) {
		pl, err := pilot.NewPilotManager(sA).Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, sA)
		um.AddPilot(pl)
		us, err := um.Submit(p, []pilot.ComputeUnitDescription{{
			Cores: 1,
			Body:  func(bp *sim.Proc, ctx *pilot.UnitContext) { bp.Sleep(5 * time.Second) },
		}})
		if err != nil {
			t.Error(err)
			return
		}
		u = us[0]
		um.WaitAll(p, us)
		pl.Cancel()
	})

	if n := recB.Len(); n != 0 {
		t.Fatalf("idle session's recorder captured %d events", n)
	}
	if u == nil || u.State() != pilot.UnitDone {
		t.Fatalf("unit did not finish: %+v", u)
	}
	if recA.Count(pilot.EventBind) != 1 || recA.Count(pilot.EventPilotState) == 0 {
		t.Errorf("recorder A: bind=%d pilot-state=%d, want 1 and >0",
			recA.Count(pilot.EventBind), recA.Count(pilot.EventPilotState))
	}
	// Every state the unit entered after NEW is in A's stream, in order.
	var got []string
	for _, ev := range recA.Events() {
		if ev.Kind == pilot.EventUnitState && ev.Unit == u.ID {
			got = append(got, ev.State)
		}
	}
	if len(got) != len(u.Timestamps)-1 || got[len(got)-1] != pilot.UnitDone.String() {
		t.Fatalf("recorder A unit states = %v, unit timestamps = %v", got, u.Timestamps)
	}
}
