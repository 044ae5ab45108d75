package core

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/hpc"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Backend encapsulates everything runtime-specific about executing
// Compute-Units on a pilot's allocation: how the runtime environment is
// brought up (the Local Resource Manager's environment-specific setup),
// how a unit's executable is started in an acquired slot, and how the
// environment is torn down. The three integration modes of the paper —
// plain HPC, YARN (Mode I spawn and Mode II connect-dedicated), and
// standalone Spark — are the built-in implementations; new runtimes
// (a Dask- or Kubernetes-flavoured backend, say) register through
// RegisterBackend without touching this package's agent.
//
// One Backend instance is created per pilot at Submit time, so
// implementations may keep per-pilot state (cluster handles, daemons)
// in their receiver.
type Backend interface {
	// Name is the registry key; a PilotDescription selects the backend
	// by setting Mode to this name.
	Name() string

	// Validate checks the backend-specific fields of a pilot
	// description at submit time, before any job is launched. res is
	// the resource the pilot will run on.
	Validate(d PilotDescription, res *Resource) error

	// Bootstrap brings the backend's runtime environment up on the
	// allocation (the agent has already completed its own generic
	// bootstrap) and returns the agent scheduler that admits units onto
	// the backend's resources.
	Bootstrap(p *sim.Proc, bc *BackendContext) (AgentScheduler, error)

	// LaunchUnit starts one unit's executable in a slot acquired from
	// the scheduler Bootstrap returned, blocking p until the executable
	// has finished. Implementations call bc.RunUnitBody once the
	// executable is up.
	LaunchUnit(p *sim.Proc, bc *BackendContext, u *Unit, sl *Slot) error

	// Teardown stops everything Bootstrap started. It runs when the
	// placeholder job drains, is cancelled, or hits its walltime.
	Teardown(bc *BackendContext)
}

// BackendContext is the view of the running agent a Backend operates
// through: the pilot and session, the allocation and its machine, the
// calibrated cost profile, and the agent's deterministic RNG stream.
type BackendContext struct {
	Pilot   *Pilot
	Session *Session
	Alloc   *hpc.Allocation
	Machine *cluster.Machine
	Profile BootstrapProfile
	RNG     *rand.Rand

	agent *agent
}

// Jitter applies the profile's run-to-run variation to d.
func (bc *BackendContext) Jitter(d sim.Duration) sim.Duration {
	return sim.Jitter(bc.RNG, d, bc.Profile.Jitter)
}

// Draining reports whether the agent is shutting down; long-running
// backend daemons should exit their poll loops when it turns true.
func (bc *BackendContext) Draining() bool {
	return bc.agent != nil && bc.agent.draining
}

// RunUnitBody marks u executing and runs its simulated executable on
// node with the given sandbox volume. Every backend's LaunchUnit funnels
// through here so UnitExecuting is timestamped uniformly.
func (bc *BackendContext) RunUnitBody(p *sim.Proc, u *Unit, node *cluster.Node, sandbox storage.Volume) {
	sim.Advance(&u.Lifecycle, UnitExecuting)
	if u.Desc.Body == nil {
		return
	}
	ctx := &UnitContext{
		Unit:    u,
		Node:    node,
		Cores:   u.Desc.Cores,
		Sandbox: sandbox,
		Shared:  bc.Machine.Lustre,
		Machine: bc.Machine,
	}
	u.Desc.Body(p, ctx)
}

// backends is the registry: backend name to per-pilot factory, an
// instance of the one generic registry behind every pluggable seam.
var backends = registry.New[func() Backend]("core", "backend", ErrUnknownBackend)

// RegisterBackend adds a backend factory under name, the registry key
// a PilotDescription's Mode selects it by. Instances the factory
// constructs should report the same string from Name(). The factory is
// invoked once per submitted pilot. Registration fails on nil
// factories, empty names, and duplicates.
func RegisterBackend(name string, factory func() Backend) error {
	return backends.Register(name, factory)
}

// Backends lists the registered backend names, sorted.
func Backends() []string { return backends.Names() }

// newBackend instantiates the backend a description's Mode selects.
func newBackend(mode PilotMode) (Backend, error) {
	factory, err := backends.Lookup(string(mode))
	if err != nil {
		return nil, err
	}
	return factory(), nil
}

func init() {
	backends.MustRegister(string(ModeHPC), func() Backend { return &hpcBackend{} })
	backends.MustRegister(string(ModeYARN), func() Backend { return &yarnBackend{} })
	backends.MustRegister(string(ModeSpark), func() Backend { return &sparkBackend{} })
}
