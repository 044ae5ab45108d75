package data

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/saga"
	"repro/internal/sim"
)

// Pilot is a Data-Pilot: a provisioned store on a storage backend,
// holding Data-Unit replicas. Unlike compute pilots there is no batch
// queue to wait in — the storage already exists — so a data pilot is
// usable as soon as AddPilot returns.
type Pilot struct {
	ID   string
	Desc PilotDescription

	store  Store
	mgr    *Manager
	index  int
	failed bool
	// cached tracks the opportunistic stage-in copies on this store in
	// recency order — the same LRU policy (internal/cache) behind the
	// Unit-Manager's result cache. The list itself is unbounded;
	// eviction is driven by the store's free space at CacheReplica time,
	// draining least-recently-read copies first.
	cached *cache.LRU[string, *Unit]
}

// Store returns the pilot's provisioned store.
func (dp *Pilot) Store() Store { return dp.store }

// Label returns the affinity label: Desc.Label, defaulting to the ID.
func (dp *Pilot) Label() string {
	if dp.Desc.Label != "" {
		return dp.Desc.Label
	}
	return dp.ID
}

// Manager owns data pilots and drives Data-Units through staging and
// replication — the Pilot-Data analogue of the Unit-Manager. Construct
// one per session with core.NewDataManager (pilot.NewDataManager).
type Manager struct {
	eng    *sim.Engine
	ft     *saga.FileTransfer
	pilots []*Pilot
	// names reserves each live (non-final) unit's logical name, so two
	// different datasets can never alias one store object.
	names map[string]*Unit
	// rec is the attached flight recorder, nil without one — the nil
	// check is the only cost recording adds to an unobserved manager.
	rec *obs.Recorder

	nextPilot int
	nextUnit  int
}

// NewManager creates a data manager staging over the given transfer
// facade.
func NewManager(e *sim.Engine, ft *saga.FileTransfer) *Manager {
	return &Manager{eng: e, ft: ft, names: make(map[string]*Unit)}
}

// SetRecorder attaches a flight recorder: Data-Unit state transitions,
// replica motion and store failures record through it from now on.
// core.NewDataManager forwards the session's recorder automatically;
// passing nil detaches.
func (dm *Manager) SetRecorder(r *obs.Recorder) { dm.rec = r }

// recordReplica emits one replica-motion event (placement,
// re-replication, caching, eviction, promotion) for du on dp.
func (dm *Manager) recordReplica(du *Unit, dp *Pilot, op string) {
	if r := dm.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindReplica, Op: op, Data: du.ID,
			Name: du.Name(), Pilot: dp.Label(), Bytes: du.Desc.SizeBytes})
	}
}

// AddPilot provisions a data pilot: the description's backend builds a
// store bound to the described storage. Labels must be unique so
// affinity names are unambiguous.
func (dm *Manager) AddPilot(d PilotDescription) (*Pilot, error) {
	backend, err := newBackend(d.Backend)
	if err != nil {
		return nil, err
	}
	dm.nextPilot++
	dp := &Pilot{
		ID:     fmt.Sprintf("dp.%04d", dm.nextPilot),
		Desc:   d,
		mgr:    dm,
		index:  len(dm.pilots),
		cached: cache.NewLRU[string, *Unit](0),
	}
	if d.Label == "" {
		dp.Desc.Label = dp.ID
	}
	for _, q := range dm.pilots {
		if q.Label() == dp.Label() {
			return nil, fmt.Errorf("data: duplicate data-pilot label %q", dp.Label())
		}
	}
	store, err := backend.Provision(dm.eng, dm.ft, dp.Desc)
	if err != nil {
		return nil, err
	}
	dp.store = store
	dm.pilots = append(dm.pilots, dp)
	return dp, nil
}

// Pilots returns the data pilots in registration order.
func (dm *Manager) Pilots() []*Pilot {
	out := make([]*Pilot, len(dm.pilots))
	copy(out, dm.pilots)
	return out
}

// Declare creates a Data-Unit in StateNew without staging it — the
// output-staging entry point: a Compute-Unit naming the declared unit in
// Outputs stages it when it completes. Names are unique among the
// manager's live units; the name frees up once a unit reaches a final
// state.
func (dm *Manager) Declare(d UnitDescription) (*Unit, error) {
	d = d.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if holder, taken := dm.names[d.Name]; taken {
		return nil, fmt.Errorf("data: name %q already declared by live unit %s", d.Name, holder.ID)
	}
	dm.nextUnit++
	du := &Unit{ID: fmt.Sprintf("du.%06d", dm.nextUnit), Desc: d, mgr: dm}
	du.Lifecycle = sim.NewLifecycle(dm.eng, du, StateDone, recordDataState)
	dm.names[d.Name] = du
	du.OnStateChange(func(du *Unit, st UnitState) {
		if st.Final() && du.mgr.names[du.Name()] == du {
			delete(du.mgr.names, du.Name())
		}
	})
	return du, nil
}

// Submit declares a Data-Unit and stages it, blocking p until the
// replication target is met. On staging errors the returned unit is
// non-nil with Err set, so callers can inspect the failed unit.
func (dm *Manager) Submit(p *sim.Proc, d UnitDescription) (*Unit, error) {
	du, err := dm.Declare(d)
	if err != nil {
		return nil, err
	}
	if err := dm.Stage(p, du); err != nil {
		return du, err
	}
	return du, nil
}

// Stage places the unit's replicas: the first is staged from the
// description's Source (nil: produced in place), the remaining ones are
// copied store-to-store, overlapping read and write. Placement is
// deterministic — affinity match first, then least-occupied store,
// ties broken by registration order; stores the unit would overflow are
// skipped. Staging an already Replicated unit is a no-op; a concurrent
// Stage waits for the in-flight one.
func (dm *Manager) Stage(p *sim.Proc, du *Unit) error {
	if du.mgr != dm {
		return fmt.Errorf("data: unit %s belongs to another manager", du.ID)
	}
	switch {
	case du.State() == StateReplicated:
		return nil
	case du.State() == StateStagingIn:
		if du.WaitReady(p) {
			return nil
		}
		return fmt.Errorf("data: unit %s: %w: concurrent staging ended %v", du.ID, ErrUnavailable, du.State())
	case du.State().Final():
		return fmt.Errorf("data: unit %s: %w: already %v", du.ID, ErrUnavailable, du.State())
	}
	targets := dm.placeReplicas(du)
	if len(targets) == 0 {
		err := fmt.Errorf("data: unit %s: %w for %d bytes among %d pilots",
			du.ID, ErrNoPilots, du.Desc.SizeBytes, len(dm.pilots))
		sim.Fail(&du.Lifecycle, StateFailed, err)
		return err
	}
	sim.Advance(&du.Lifecycle, StateStagingIn)
	first := targets[0]
	if err := first.store.Ingest(p, du.Name(), du.Desc.SizeBytes, du.Desc.Source); err != nil {
		err = fmt.Errorf("data: unit %s stage-in to %s: %w", du.ID, first.store.Name(), err)
		sim.Fail(&du.Lifecycle, StateFailed, err)
		return err
	}
	if first.failed {
		// FailPilot hit the target while the ingest was in flight: the
		// bytes died with the store, so a failed store must never be
		// recorded as a replica holder.
		err := fmt.Errorf("data: unit %s stage-in to %s: %w: store failed during staging",
			du.ID, first.store.Name(), ErrUnavailable)
		sim.Fail(&du.Lifecycle, StateFailed, err)
		return err
	}
	du.replicas = append(du.replicas, first)
	dm.recordReplica(du, first, "place")
	if err := dm.abandonIfCanceled(p, du); err != nil {
		return err
	}
	for _, t := range targets[1:] {
		if t.failed {
			continue // died since placement; the target count caps at survivors
		}
		if err := dm.copyReplica(p, du, first, t); err != nil {
			// Free the replicas already placed — a failed unit cannot
			// be Removed, so leaving them would leak store capacity and
			// keep counting toward the locality schedulers' byte scores.
			dm.dropReplicas(p, du)
			err = fmt.Errorf("data: unit %s replica to %s: %w", du.ID, t.store.Name(), err)
			sim.Fail(&du.Lifecycle, StateFailed, err)
			return err
		}
		if t.failed {
			continue // died mid-copy; bytes lost with the store
		}
		du.replicas = append(du.replicas, t)
		dm.recordReplica(du, t, "place")
		if err := dm.abandonIfCanceled(p, du); err != nil {
			return err
		}
	}
	sim.Advance(&du.Lifecycle, StateReplicated)
	return nil
}

// dropReplicas deletes every placed replica of du, tolerating stores
// that no longer hold the object.
func (dm *Manager) dropReplicas(p *sim.Proc, du *Unit) {
	for _, dp := range du.replicas {
		_ = dp.store.Delete(p, du.Name())
	}
	du.replicas = nil
}

// abandonIfCanceled handles a Cancel that raced an in-flight Stage:
// the replicas placed so far are deleted and the staging call reports
// the unit unavailable instead of silently succeeding on a canceled
// unit.
func (dm *Manager) abandonIfCanceled(p *sim.Proc, du *Unit) error {
	if !du.State().Final() {
		return nil
	}
	dm.dropReplicas(p, du)
	return fmt.Errorf("data: unit %s: %w: %v during staging", du.ID, ErrUnavailable, du.State())
}

// copyReplica moves one replica of du from src to dst. When the source
// store exposes a flat volume the copy runs over the SAGA pipelined
// path; otherwise (HDFS) the source read is overlapped with the
// destination ingest by hand.
func (dm *Manager) copyReplica(p *sim.Proc, du *Unit, src, dst *Pilot) error {
	name, bytes := du.Name(), du.Desc.SizeBytes
	if vol := src.store.Volume(); vol != nil {
		return dst.store.Ingest(p, name, bytes, vol)
	}
	done := sim.NewEvent(dm.eng)
	var serveErr error
	dm.eng.Spawn("data:replica:"+du.ID, func(rp *sim.Proc) {
		defer done.Trigger()
		serveErr = src.store.ServeTo(rp, name, nil)
	})
	err := dst.store.Ingest(p, name, bytes, nil)
	p.Wait(done)
	if err != nil {
		return err
	}
	return serveErr
}

// placeReplicas chooses the target pilots for du, deterministically:
// affinity match first, then ascending store occupancy, ties broken by
// registration order; stores the unit would overflow are skipped. The
// count is capped at the eligible pilots, like HDFS caps replication at
// its DataNode count.
func (dm *Manager) placeReplicas(du *Unit) []*Pilot {
	eligible := make([]*Pilot, 0, len(dm.pilots))
	for _, dp := range dm.pilots {
		if dp.failed {
			continue // a failed store never receives replicas
		}
		if dp.store.Has(du.Name()) {
			continue // never two replicas on one store
		}
		if cap := dp.store.CapacityBytes(); cap > 0 && dp.store.UsedBytes()+du.Desc.SizeBytes > cap {
			continue
		}
		eligible = append(eligible, dp)
	}
	sort.SliceStable(eligible, func(i, j int) bool {
		a, b := eligible[i], eligible[j]
		am := du.Desc.Affinity != "" && (a.Label() == du.Desc.Affinity || a.ID == du.Desc.Affinity)
		bm := du.Desc.Affinity != "" && (b.Label() == du.Desc.Affinity || b.ID == du.Desc.Affinity)
		if am != bm {
			return am
		}
		if ua, ub := a.store.UsedBytes(), b.store.UsedBytes(); ua != ub {
			return ua < ub
		}
		return a.index < b.index
	})
	if len(eligible) > du.Desc.Replication {
		eligible = eligible[:du.Desc.Replication]
	}
	return eligible
}

// Remove deletes every replica of du and retires it to StateDone — the
// end of the data unit's lifecycle.
func (dm *Manager) Remove(p *sim.Proc, du *Unit) error {
	if du.mgr != dm {
		return fmt.Errorf("data: unit %s belongs to another manager", du.ID)
	}
	if du.State().Final() {
		return fmt.Errorf("data: unit %s: %w: already %v", du.ID, ErrUnavailable, du.State())
	}
	// Replicas are dropped from the list as they are deleted, so a
	// Remove that fails partway is retryable without re-deleting.
	for len(du.replicas) > 0 {
		dp := du.replicas[0]
		if err := dp.store.Delete(p, du.Name()); err != nil {
			return err
		}
		du.replicas = du.replicas[1:]
	}
	// Opportunistic cached copies retire with the unit too.
	for len(du.cached) > 0 {
		dp := du.cached[0]
		if err := dp.store.Delete(p, du.Name()); err != nil {
			return err
		}
		dp.cached.Remove(du.Name())
		du.cached = du.cached[1:]
	}
	sim.Advance(&du.Lifecycle, StateDone)
	return nil
}

// Cancel retires a unit that has not finished staging; an in-flight
// Stage notices at its next step, deletes the replicas it already
// placed, and returns ErrUnavailable. Canceling a Replicated or final
// unit is a no-op.
func (dm *Manager) Cancel(du *Unit) {
	if du.State() != StateReplicated {
		sim.Advance(&du.Lifecycle, StateCanceled)
	}
}
