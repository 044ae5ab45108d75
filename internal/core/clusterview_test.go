package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/sim"
)

// TestClusterViewCountsAndDataBytes drives a two-pilot setup with an
// attached in-memory store and checks the fabric's numbers: per-pilot
// capacity, the waiting/running split, the store occupancy, and the
// pending-input-byte attribution behind parked units.
func TestClusterViewCountsAndDataBytes(t *testing.T) {
	e := newEnv(t, 4, fastProfile())
	e.eng.Spawn("driver", func(p *sim.Proc) {
		plA := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
		})
		plB := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
		})
		um := newUM(t, e.session, WithScheduler(SchedulerBackfill))
		um.AddPilot(plA)
		um.AddPilot(plB)

		dm := NewDataManager(e.session)
		dp, err := dm.AddPilot(data.PilotDescription{
			Backend: data.BackendMem, Label: "hot", CapacityBytes: 1 << 30,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := plA.AttachDataPilot(dp); err != nil {
			t.Error(err)
			return
		}
		du, err := dm.Submit(p, data.UnitDescription{Name: "/d/hot", SizeBytes: 64 << 20})
		if err != nil {
			t.Error(err)
			return
		}

		// Units submitted before any pilot is Active park in the manager:
		// all waiting, none running, their input bytes attributed to the
		// pilot whose attached store holds the replica.
		units, err := um.Submit(p, []ComputeUnitDescription{
			{Cores: 2, Inputs: []DataRef{{Unit: du}},
				Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(30 * time.Second) }},
			{Cores: 1,
				Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(30 * time.Second) }},
		})
		if err != nil {
			t.Error(err)
			return
		}
		v := um.ClusterView()
		if v.WaitingUnits != 2 || v.WaitingCores != 3 || v.RunningUnits != 0 {
			t.Errorf("parked view: waiting %d/%d cores, running %d; want 2/3, 0",
				v.WaitingUnits, v.WaitingCores, v.RunningUnits)
		}
		pvA, pvB := v.For(plA), v.For(plB)
		if pvA == nil || pvB == nil {
			t.Error("registered pilots missing from the view")
			return
		}
		if pvA.PendingInputBytes != 64<<20 {
			t.Errorf("pilot A pending input bytes = %d, want %d", pvA.PendingInputBytes, int64(64<<20))
		}
		if pvB.PendingInputBytes != 0 {
			t.Errorf("pilot B pending input bytes = %d, want 0", pvB.PendingInputBytes)
		}
		if pvA.DataUsedBytes != 64<<20 || pvA.DataCapacityBytes != 1<<30 {
			t.Errorf("pilot A data store = %d/%d bytes, want %d/%d",
				pvA.DataUsedBytes, pvA.DataCapacityBytes, int64(64<<20), int64(1<<30))
		}
		if free := pvA.DataFreeBytes(); free != 1<<30-64<<20 {
			t.Errorf("pilot A data free bytes = %d, want %d", free, int64(1<<30-64<<20))
		}
		if pvB.DataPilot != nil || pvB.DataFreeBytes() != 0 {
			t.Error("pilot B reports an attached data store it does not have")
		}
		if hot := v.HottestDataPilot(); hot != pvA {
			t.Errorf("HottestDataPilot = %v, want pilot A's view", hot)
		}

		// Once the pilots are up and the units execute, the split flips
		// and per-pilot capacity is visible.
		plA.WaitState(p, PilotActive)
		plB.WaitState(p, PilotActive)
		for _, u := range units {
			u.watch.AwaitMin(p, u.State(), UnitExecuting)
		}
		v = um.ClusterView()
		if v.RunningUnits != 2 || v.RunningCores != 3 || v.WaitingUnits != 0 {
			t.Errorf("running view: running %d/%d cores, waiting %d; want 2/3, 0",
				v.RunningUnits, v.RunningCores, v.WaitingUnits)
		}
		if tc := v.For(plA).TotalCores; tc != 2*8 {
			t.Errorf("pilot A total cores = %d, want 16", tc)
		}
		if fc := v.For(plA).FreeCores() + v.For(plB).FreeCores(); fc != 2*16-3 {
			t.Errorf("free cores across pilots = %d, want %d", fc, 2*16-3)
		}
		um.WaitAll(p, units)
		plA.Cancel()
		plB.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
}

// TestClusterViewCountsBacklogMidPass: an observer reading the view
// while a scheduling pass is blocked on a coordination-store round trip
// sees every submitted, not-yet-executing unit as waiting — the units
// the pass has yet to offer included.
func TestClusterViewCountsBacklogMidPass(t *testing.T) {
	e := newEnv(t, 2, fastProfile())
	var um *UnitManager
	submitted, midPass, canceled := 0, 0, false
	e.eng.Spawn("driver", func(p *sim.Proc) {
		// The pilot stays queued in the batch system throughout, so units
		// bind (round-robin binds to any live pilot) but none executes.
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		um = newUM(t, e.session)
		um.AddPilot(pl)
		um.observe(func() {
			if !um.passing || canceled {
				return // canceling the pilot fails the units
			}
			midPass++
			v := um.ClusterView()
			if v.WaitingUnits != submitted || v.RunningUnits != 0 {
				t.Errorf("mid-pass view: waiting %d, running %d; want %d, 0",
					v.WaitingUnits, v.RunningUnits, submitted)
			}
		})
		e.eng.Spawn("late-submitter", func(p *sim.Proc) {
			// Arrives while the driver's pass pushes its first bind.
			p.Sleep(time.Nanosecond)
			submitted += 4
			if _, err := um.Submit(p, make([]ComputeUnitDescription, 4)); err != nil {
				t.Error(err)
			}
		})
		submitted += 8
		if _, err := um.Submit(p, make([]ComputeUnitDescription, 8)); err != nil {
			t.Error(err)
		}
		if v := um.ClusterView(); v.WaitingUnits != submitted {
			t.Errorf("after the pass: waiting %d, want %d", v.WaitingUnits, submitted)
		}
		canceled = true
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if midPass == 0 {
		t.Fatal("observer never ran while a pass was in flight")
	}
}

// BenchmarkClusterView guards the cost of a ClusterView read: the
// live-probe refresh must stay cheap — and flat in the in-flight unit
// count — as the load grows.
func BenchmarkClusterView(b *testing.B) {
	for _, inflight := range []int{16, 256} {
		b.Run(fmt.Sprintf("%dunits", inflight), func(b *testing.B) {
			eng := sim.NewEngine()
			defer eng.Close()
			s := NewSession(eng, fastProfile(), 1)
			um, err := NewUnitManager(s)
			if err != nil {
				b.Fatal(err)
			}
			// Synthetic in-flight load: pilots and charged units wired
			// directly through the accounting the bind path uses, so the
			// benchmark isolates view assembly from agent execution.
			pilots := make([]*Pilot, 4)
			for i := range pilots {
				pilots[i] = &Pilot{ID: fmt.Sprintf("bench.%d", i), session: s,
					watch:      sim.NewNotifier[PilotState](eng),
					Timestamps: make(map[PilotState]sim.Duration)}
				if err := um.AddPilot(pilots[i]); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < inflight; i++ {
				u := &Unit{ID: fmt.Sprintf("u.%d", i), session: s,
					Desc:       ComputeUnitDescription{Cores: 2}.withDefaults(),
					state:      UnitPendingAgent,
					watch:      sim.NewNotifier[UnitState](eng),
					Timestamps: make(map[UnitState]sim.Duration)}
				pl := pilots[i%len(pilots)]
				um.charged[u] = pl
				pv := um.view.For(pl)
				pv.InFlightUnits++
				pv.InFlightCores += u.Desc.Cores
				um.setAcct(u, acctBoundWaiting, pl)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := um.ClusterView()
				if v.WaitingUnits != inflight {
					b.Fatalf("view counted %d waiting units, want %d", v.WaitingUnits, inflight)
				}
			}
		})
	}
}
