package yarn

import (
	"fmt"

	"repro/internal/sim"
)

// ContainerState is the lifecycle state of a container.
type ContainerState int

// Container states, following the YARN container state machine.
const (
	ContainerAllocated ContainerState = iota
	ContainerLocalizing
	ContainerRunning
	ContainerCompleted
	ContainerKilled
)

// String returns the YARN-style state name.
func (s ContainerState) String() string {
	switch s {
	case ContainerAllocated:
		return "ALLOCATED"
	case ContainerLocalizing:
		return "LOCALIZING"
	case ContainerRunning:
		return "RUNNING"
	case ContainerCompleted:
		return "COMPLETE"
	case ContainerKilled:
		return "KILLED"
	default:
		return fmt.Sprintf("ContainerState(%d)", int(s))
	}
}

// ExitKilled is YARN's -105 exit code: the container was killed by the
// ApplicationMaster or with its application.
const ExitKilled = -105

// ContainerBody is the code that runs inside a container.
type ContainerBody func(p *sim.Proc, c *Container)

// Container is one YARN resource allocation bound to a node.
type Container struct {
	ID   int
	App  *Application
	Spec ResourceSpec

	nm    *NodeManager
	state ContainerState
	// Done triggers when the container reaches a terminal state.
	Done     *sim.Event
	ExitCode int

	// AllocatedAt/StartedAt record lifecycle times for the startup
	// benchmarks.
	AllocatedAt sim.Duration
	StartedAt   sim.Duration
	FinishedAt  sim.Duration

	proc *sim.Proc
}

// NodeManager returns the NM hosting this container.
func (c *Container) NodeManager() *NodeManager { return c.nm }

// State returns the container state.
func (c *Container) State() ContainerState { return c.state }

// terminal moves the container to a terminal state, releasing resources
// exactly once. Kernel or process context.
func (c *Container) terminal(state ContainerState, exit int) {
	if c.state == ContainerCompleted || c.state == ContainerKilled {
		return
	}
	c.state = state
	c.ExitCode = exit
	c.FinishedAt = c.nm.rm.eng.Now()
	delete(c.nm.containers, c.ID)
	c.nm.containerGone()
	c.nm.release(c.Spec)
	delete(c.App.live, c.ID)
	c.Done.Trigger()
}
