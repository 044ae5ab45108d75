package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/hdfs"
	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/saga"
	"repro/internal/sim"
	"repro/internal/yarn"
)

// Pilot is a placeholder job managed by the PilotManager: once its agent
// is active, it executes Compute-Units on the allocation through the
// execution backend its description's Mode selected.
type Pilot struct {
	ID      string
	Desc    PilotDescription
	session *Session
	res     *Resource
	backend Backend

	// Lifecycle holds the pilot's state, per-state Timestamps and, for
	// PilotFailed when the agent itself failed (a backend Bootstrap
	// error), the cause in Err.
	sim.Lifecycle[*Pilot, PilotState]

	// AgentStartTime is when the placeholder job's payload began on the
	// allocation — the reference point of the paper's "agent startup
	// time" (time between agent start and readiness for the first CU).
	AgentStartTime sim.Duration

	// HadoopSpawnTime is the Mode I cluster-spawn portion of the agent
	// startup (download + configure + start HDFS/YARN); zero for other
	// modes. Figure 6's RP-YARN runtimes include it.
	HadoopSpawnTime sim.Duration

	sagaJob *saga.Job
	agent   *agent

	// chunks are the extra allocations acquired by Resize, oldest
	// first; a chunk with no nodes yet is still in the batch queue.
	chunks []*chunk
	// resizing serializes Resize calls; resizeDone wakes the next one.
	resizing   bool
	resizeDone *sim.Event

	// queueName is the coordination-store queue the Unit-Manager feeds.
	queueName string

	// dataPilot is the attached Data-Pilot (AttachDataPilot): the store
	// this pilot's units read co-located replicas from, and the signal
	// the data-affinity unit schedulers place by.
	dataPilot *data.Pilot
}

// Resource returns the resource the pilot runs on.
func (pl *Pilot) Resource() *Resource { return pl.res }

// Backend returns the execution backend instance driving this pilot's
// agent.
func (pl *Pilot) Backend() Backend { return pl.backend }

// AgentStartup returns the paper's Figure 5 metric: time from agent start
// to readiness for the first Compute-Unit. Valid once PilotActive.
func (pl *Pilot) AgentStartup() sim.Duration {
	return pl.Timestamps[PilotActive] - pl.AgentStartTime
}

// QueueWait returns the time the placeholder job spent in the batch
// queue.
func (pl *Pilot) QueueWait() sim.Duration {
	if pl.sagaJob == nil {
		return 0
	}
	return pl.sagaJob.QueueWait()
}

// recordPilotState emits the pilot's state transition (with its current
// node capacity) to the session's flight recorder, when one is attached.
// A failure's cause is in Pilot.Err, not in the event.
func recordPilotState(pl *Pilot, st PilotState, _ string) {
	if r := pl.session.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindPilotState, Pilot: pl.ID,
			State: st.String(), Nodes: pl.Capacity()})
	}
}

// Cancel terminates the pilot: the placeholder job is cancelled and the
// agent (with any Hadoop/Spark cluster it spawned) shuts down.
func (pl *Pilot) Cancel() {
	if pl.State().Final() {
		return
	}
	if pl.sagaJob != nil {
		pl.sagaJob.Cancel()
	}
	pl.releaseChunks()
	sim.Advance(&pl.Lifecycle, PilotCanceled)
}

// YARNMetrics exposes the connected YARN cluster's metrics, or nil when
// the pilot's backend does not run on YARN (used by tests and the repro
// harness).
func (pl *Pilot) YARNMetrics() *yarn.ClusterMetrics {
	if pl.agent == nil {
		return nil
	}
	prov, ok := pl.backend.(YARNMetricsProvider)
	if !ok {
		return nil
	}
	return prov.YARNMetrics()
}

// HDFS returns the HDFS filesystem the pilot's units see: the one its
// backend runs on (a Mode I pilot's spawned cluster), or the resource's
// dedicated filesystem for ConnectDedicated pilots before their backend
// is bootstrapped. Nil when the pilot has no HDFS (plain HPC, Spark).
// The "locality" unit scheduler places units through it.
func (pl *Pilot) HDFS() *hdfs.FileSystem {
	if prov, ok := pl.backend.(HDFSProvider); ok {
		if fs := prov.HDFS(); fs != nil {
			return fs
		}
	}
	if pl.Desc.ConnectDedicated && pl.res != nil {
		return pl.res.DedicatedHDFS
	}
	return nil
}

// AttachDataPilot binds a Data-Pilot to this compute pilot: its store is
// where the pilot's units find co-located input replicas, and the
// "locality"/"co-locate" unit schedulers route data-heavy units to the
// pilot whose attached store holds the most input bytes. Typically the
// data pilot is provisioned over storage the compute pilot brought up —
// its Mode I HDFS() once PilotActive, or an in-memory tier sized to the
// allocation.
func (pl *Pilot) AttachDataPilot(dp *data.Pilot) error {
	if dp == nil {
		return fmt.Errorf("core: pilot %s: nil data pilot", pl.ID)
	}
	if pl.dataPilot != nil && pl.dataPilot != dp {
		return fmt.Errorf("core: pilot %s already has data pilot %s attached", pl.ID, pl.dataPilot.ID)
	}
	pl.dataPilot = dp
	return nil
}

// DataPilot returns the attached Data-Pilot, or nil.
func (pl *Pilot) DataPilot() *data.Pilot { return pl.dataPilot }

// PilotManager submits and tracks pilots (paper Figure 3, steps P.1–P.7).
type PilotManager struct {
	session *Session
}

// NewPilotManager creates a pilot manager on the session.
func NewPilotManager(s *Session) *PilotManager {
	return &PilotManager{session: s}
}

// Session returns the owning session.
func (pm *PilotManager) Session() *Session { return pm.session }

// Submit launches a pilot: it resolves and validates the description's
// execution backend, builds the agent payload, submits the placeholder
// job through SAGA, and returns immediately with the pilot in
// PilotLaunching. Use WaitState(PilotActive) to block until the agent is
// ready.
func (pm *PilotManager) Submit(p *sim.Proc, desc PilotDescription) (*Pilot, error) {
	desc = desc.withDefaults()
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	res, ok := pm.session.Resource(desc.Resource)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrUnknownResource, desc.Resource)
	}
	backend, err := newBackend(desc.Mode)
	if err != nil {
		return nil, err
	}
	if err := backend.Validate(desc, res); err != nil {
		return nil, err
	}
	pm.session.nextPilot++
	pl := &Pilot{
		ID:      fmt.Sprintf("pilot.%04d", pm.session.nextPilot),
		Desc:    desc,
		session: pm.session,
		res:     res,
		backend: backend,
	}
	pl.Lifecycle = sim.NewLifecycle(pm.session.eng, pl, PilotDone, recordPilotState)
	pl.queueName = "units:" + pl.ID
	sim.Advance(&pl.Lifecycle, PilotLaunching)

	js, err := saga.NewJobService(res.EffectiveURL(), res.Batch)
	if err != nil {
		sim.Advance(&pl.Lifecycle, PilotFailed)
		return nil, fmt.Errorf("core: pilot %s: %w", pl.ID, err)
	}
	job, err := js.Submit(p, saga.JobDescription{
		Executable: "radical-pilot-agent",
		NumNodes:   desc.Nodes,
		WallTime:   desc.Runtime,
		Queue:      desc.Queue,
		Payload: func(ap *sim.Proc, alloc *hpc.Allocation) {
			pl.runAgent(ap, alloc)
		},
	})
	if err != nil {
		sim.Advance(&pl.Lifecycle, PilotFailed)
		return nil, fmt.Errorf("core: pilot %s: %w", pl.ID, err)
	}
	pl.sagaJob = job
	sim.Advance(&pl.Lifecycle, PilotPending)
	// Track the job into final states in the background.
	pm.session.eng.SpawnDaemon("pmgr:watch:"+pl.ID, func(wp *sim.Proc) {
		st := job.Wait(wp)
		switch st {
		case saga.Done:
			sim.Advance(&pl.Lifecycle, PilotDone)
		case saga.Canceled:
			sim.Advance(&pl.Lifecycle, PilotCanceled)
		default:
			sim.Advance(&pl.Lifecycle, PilotFailed)
		}
	})
	return pl, nil
}
