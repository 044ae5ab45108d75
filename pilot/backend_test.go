package pilot_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/pilot"
)

// toyBackend is a minimal fourth execution backend registered through
// the public API — the acceptance check that new runtimes plug in
// without modifying any core file. It "boots" instantly and runs units
// directly on the allocation's first node with a node-local sandbox.
type toyBackend struct {
	booted   bool
	launched int
	tornDown bool
}

func (b *toyBackend) Name() string { return "toy" }

func (b *toyBackend) Validate(d pilot.PilotDescription, _ *pilot.Resource) error {
	if d.ConnectDedicated {
		return fmt.Errorf("toy: ConnectDedicated unsupported")
	}
	return nil
}

func (b *toyBackend) Bootstrap(p *sim.Proc, bc *pilot.BackendContext) (pilot.AgentScheduler, error) {
	p.Sleep(bc.Jitter(time.Second))
	b.booted = true
	return pilot.NewPoolScheduler(bc.Session.Engine(), 16), nil
}

func (b *toyBackend) LaunchUnit(p *sim.Proc, bc *pilot.BackendContext, u *pilot.Unit, _ *pilot.Slot) error {
	node := bc.Alloc.Nodes[0]
	p.Sleep(100 * time.Millisecond)
	bc.RunUnitBody(p, u, node, node.Disk)
	b.launched++
	return nil
}

func (b *toyBackend) Teardown(*pilot.BackendContext) { b.tornDown = true }

// lastToy captures the instance Submit created so the test can inspect
// it after the run.
var lastToy *toyBackend

func registerToy(t *testing.T) {
	t.Helper()
	err := pilot.RegisterBackend("toy", func() pilot.Backend {
		lastToy = &toyBackend{}
		return lastToy
	})
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
}

func TestToyBackendRunsUnits(t *testing.T) {
	registerToy(t)
	if !slices.Contains(pilot.Backends(), "toy") {
		t.Fatalf("registry %v missing toy backend", pilot.Backends())
	}
	e := newTestEnv(t, 2)
	var sandbox string
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: "toy",
		})
		if err != nil {
			t.Error(err)
			return
		}
		if !pl.WaitState(p, pilot.PilotActive) {
			t.Errorf("toy pilot never active: %v", pl.State())
			return
		}
		um := newUM(t, e.session)
		um.AddPilot(pl)
		units, err := um.Submit(p, []pilot.ComputeUnitDescription{{
			Executable: "/bin/toy",
			Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
				sandbox = ctx.Sandbox.Name()
			},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		if units[0].State() != pilot.UnitDone {
			t.Errorf("unit %v (%v)", units[0].State(), units[0].Err)
		}
		pl.Cancel()
	})
	if lastToy == nil || !lastToy.booted || lastToy.launched != 1 {
		t.Fatalf("toy backend not driven: %+v", lastToy)
	}
	if !lastToy.tornDown {
		t.Fatalf("toy backend not torn down on cancel")
	}
	if !strings.Contains(sandbox, "disk") {
		t.Fatalf("toy sandbox = %q, want node-local disk", sandbox)
	}
}

// errBootFailed is the cause brokenBackend's Bootstrap reports.
var errBootFailed = errors.New("toy runtime failed to start")

// bootFailure, while a test arms it, is the error every brokenBackend
// Bootstrap returns. Unarmed, brokenBackend boots like toyBackend, so
// the conformance sweep over all registered backends still passes it.
var bootFailure error

// brokenBackend is a toy backend whose Bootstrap can be made to fail.
type brokenBackend struct{ toyBackend }

func (b *brokenBackend) Name() string { return "toy-broken" }

func (b *brokenBackend) Bootstrap(p *sim.Proc, bc *pilot.BackendContext) (pilot.AgentScheduler, error) {
	if bootFailure != nil {
		p.Sleep(bc.Jitter(time.Second))
		return nil, bootFailure
	}
	return b.toyBackend.Bootstrap(p, bc)
}

// TestBackendBootstrapErrorFailsPilot: a Bootstrap error fails the pilot
// with the cause in Pilot.Err, tears the backend down, and fails the
// unit bound to it, instead of crashing the process.
func TestBackendBootstrapErrorFailsPilot(t *testing.T) {
	var broken *brokenBackend
	err := pilot.RegisterBackend("toy-broken", func() pilot.Backend {
		broken = &brokenBackend{}
		return broken
	})
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	bootFailure = errBootFailed
	t.Cleanup(func() { bootFailure = nil })
	e := newTestEnv(t, 1)
	var final pilot.PilotState
	var pl *pilot.Pilot
	var units []*pilot.Unit
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err = pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: "toy-broken",
		})
		if err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session)
		um.AddPilot(pl)
		units, err = um.Submit(p, []pilot.ComputeUnitDescription{{
			Executable: "/bin/toy",
			Body:       func(*sim.Proc, *pilot.UnitContext) {},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		final = pl.Wait(p)
		um.WaitAll(p, units)
	})
	if pl == nil || len(units) != 1 {
		t.Fatal("pilot or unit never submitted")
	}
	if final != pilot.PilotFailed {
		t.Errorf("pilot ended %v, want FAILED", final)
	}
	if !errors.Is(pl.Err, errBootFailed) {
		t.Errorf("pilot Err = %v, want it to wrap %v", pl.Err, errBootFailed)
	}
	if broken == nil || !broken.tornDown {
		t.Error("failed backend was not torn down")
	}
	if units[0].State() != pilot.UnitFailed || !errors.Is(units[0].Err, pilot.ErrNoLivePilot) {
		t.Errorf("bound unit ended %v (%v), want FAILED with ErrNoLivePilot", units[0].State(), units[0].Err)
	}
}

func TestDuplicateBackendRegistrationRejected(t *testing.T) {
	registerToy(t)
	err := pilot.RegisterBackend("toy", func() pilot.Backend { return &toyBackend{} })
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration accepted (err=%v)", err)
	}
	if err := pilot.RegisterBackend("nil-factory", nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	if err := pilot.RegisterBackend("", func() pilot.Backend { return &toyBackend{} }); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestUnknownBackendAtSubmit(t *testing.T) {
	e := newTestEnv(t, 1)
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		_, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: "no-such-runtime",
		})
		if err == nil {
			t.Error("unknown backend accepted at Submit")
			return
		}
		// The error should teach the caller what is available.
		if !strings.Contains(err.Error(), "hpc") || !strings.Contains(err.Error(), "yarn") {
			t.Errorf("error does not list registered backends: %v", err)
		}
	})
}

// TestYARNOnlyFieldsRejectedForCustomBackend: the core guard must
// reject YARN-only description fields for every non-YARN backend, so a
// custom backend that forgets to validate them cannot silently ignore
// them.
func TestYARNOnlyFieldsRejectedForCustomBackend(t *testing.T) {
	registerToy(t)
	e := newTestEnv(t, 1)
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		if _, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: "toy", ReuseAM: true,
		}); err == nil {
			t.Error("ReuseAM accepted by a non-YARN custom backend")
		}
	})
}

func TestBuiltinBackendsRegistered(t *testing.T) {
	names := pilot.Backends()
	for _, want := range []string{"hpc", "yarn", "spark"} {
		if !slices.Contains(names, want) {
			t.Fatalf("registry %v missing built-in %q", names, want)
		}
	}
}
