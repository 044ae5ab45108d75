package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/sim"
)

// ClusterView is the one coherent picture of the cluster every placement
// decision consumes — the placement fabric: unit schedulers, autoscale
// policies and the data co-scheduling signals all read it. It spans
// per-pilot capacity, waiting and running cores, the attached data
// store's occupancy, and the input bytes parked behind the manager's
// waiting units.
//
// Each UnitManager keeps exactly one view, live: its unit counts are
// updated in place on every unit transition, so they are current at any
// instant, mid-pass included, and no read walks the in-flight units.
// The probes that change outside the manager's event stream (pilot
// state and capacity, data-store bytes, pending input bytes, cache
// counters) are refreshed on every UnitManager.ClusterView call, which
// returns the manager's own view. Consumers read it synchronously and
// call ClusterView again rather than retain it.
type ClusterView struct {
	// Now is the virtual time of the last ClusterView call.
	Now sim.Duration
	// Pilots holds one view per registered pilot, in registration order,
	// including pilots that have reached a final state (their State says
	// so) — callers that only want live pilots filter on State.Final().
	Pilots []*PilotView
	// WaitingUnits/WaitingCores count units submitted but not yet
	// executing — parked in the manager plus bound but still queued or in
	// agent scheduling/staging; RunningUnits/RunningCores count executing
	// units. These are the manager-wide totals the autoscaler's demand
	// signal is built from.
	WaitingUnits, WaitingCores int
	RunningUnits, RunningCores int
	// HeldUnits/HeldCores count units parked in UnitPendingInput — work
	// whose input Data-Units have not replicated yet. They are demand
	// that exists but cannot run, split out of the Waiting counts so
	// autoscale policies do not grow capacity for units no pilot could
	// start; they join Waiting once their inputs replicate.
	HeldUnits, HeldCores int
	// Cache is the result cache's snapshot (WithResultCache): hit,
	// miss, coalesce and eviction counters plus the in-flight gauges.
	// Coalesced waiters parked in UnitPendingResult are deliberately
	// invisible to the Waiting and Held counts — they represent work
	// already executing once, not demand for more capacity — so this is
	// where they surface. Enabled is false on managers without a cache.
	Cache CacheSnapshot

	byPilot map[*Pilot]*PilotView
}

// PilotView is one pilot's slice of the ClusterView.
type PilotView struct {
	// Pilot is the viewed pilot; State its state at read time.
	Pilot *Pilot
	State PilotState
	// Nodes is the pilot's current allocation (Pilot.Capacity());
	// CoresPerNode the machine's per-node core count.
	Nodes, CoresPerNode int
	// TotalCores estimates the pilot's core capacity: the connected YARN
	// cluster's vcores when the pilot exposes cluster metrics, and
	// Nodes × CoresPerNode otherwise — both track elastic resizes. Zero
	// means the capacity is unknown.
	TotalCores int
	// InFlightUnits counts units bound to the pilot that have not yet
	// reached a final state; InFlightCores is their summed core demand.
	InFlightUnits, InFlightCores int
	// DoneUnits and FailedUnits are the pilot's lifetime completion
	// counters — units bound here that reached DONE, or FAILED/CANCELED.
	// Always-on and O(1) per transition, so accounting costs nothing
	// when no recorder or registry is attached.
	DoneUnits, FailedUnits int64
	// WaitingUnits/WaitingCores are the bound-but-not-yet-executing part
	// of the in-flight load; RunningUnits/RunningCores the executing part.
	WaitingUnits, WaitingCores int
	RunningUnits, RunningCores int
	// DataPilot is the attached Data-Pilot, nil when none is attached.
	// DataUsedBytes and DataCapacityBytes describe its store's occupancy
	// and configured bound (0 = unbounded).
	DataPilot                        *data.Pilot
	DataUsedBytes, DataCapacityBytes int64
	// PendingInputBytes totals the Inputs bytes of the manager's waiting
	// units whose replicas the attached store holds — the demand signal
	// the data-aware autoscale policy grows on.
	PendingInputBytes int64
}

// FreeCores is TotalCores minus the cores already in flight.
func (pv *PilotView) FreeCores() int { return pv.TotalCores - pv.InFlightCores }

// DataFreeBytes is the attached store's remaining capacity: -1 for an
// unbounded store, 0 when no data pilot is attached.
func (pv *PilotView) DataFreeBytes() int64 {
	if pv.DataPilot == nil {
		return 0
	}
	if pv.DataCapacityBytes <= 0 {
		return -1
	}
	return pv.DataCapacityBytes - pv.DataUsedBytes
}

// InputBytes sums the bytes of the unit's Data-Unit inputs whose
// replicas the pilot's attached data pilot holds — the co-location
// signal the data-affinity schedulers place by.
func (pv *PilotView) InputBytes(u *Unit) int64 {
	return inputBytesOnPilot(pv.DataPilot, u)
}

// inputBytesOnPilot is the shared probe behind PilotView.InputBytes and
// hand-built Candidates.
func inputBytesOnPilot(dp *data.Pilot, u *Unit) int64 {
	if dp == nil {
		return 0
	}
	var total int64
	for _, ref := range u.Desc.Inputs {
		if ref.Unit != nil && ref.Unit.ReplicaOn(dp) {
			total += ref.Unit.SizeBytes()
		}
	}
	return total
}

// For returns the view of pl, or nil when pl is not registered with the
// manager that assembled the view.
func (v *ClusterView) For(pl *Pilot) *PilotView { return v.byPilot[pl] }

// HottestDataPilot returns the view of the live pilot whose attached
// data store holds the most bytes behind the waiting units' Inputs, nil
// when no live pilot holds any. Ties resolve to registration order, so
// the answer is deterministic.
func (v *ClusterView) HottestDataPilot() *PilotView {
	var best *PilotView
	for _, pv := range v.Pilots {
		if pv.State.Final() || pv.PendingInputBytes == 0 {
			continue
		}
		if best == nil || pv.PendingInputBytes > best.PendingInputBytes {
			best = pv
		}
	}
	return best
}

// ClusterView refreshes the live probes of the manager's view and
// returns it. The refresh is O(pilots) plus, when a pilot has an
// attached data store, one walk over the waiting units' inputs;
// BenchmarkClusterView guards it.
func (um *UnitManager) ClusterView() *ClusterView {
	um.refreshView()
	return &um.view
}

// debugViewAudit turns on the full-walk cross-check of the view's
// counts on every refresh. Tests flip it; production reads stay
// O(pilots).
var debugViewAudit = false

// auditView re-derives the view's counts by a full walk over the park
// index, the held map and the charged map, and panics on any mismatch,
// manager-wide or per pilot. The walk reads each unit's phase from its
// state, never from its acct field. A unit popped from the park index is
// outside every walk while the policy's Pick runs; no policy under test
// blocks there, so no view is read in that window.
func (um *UnitManager) auditView() {
	walk := ClusterView{byPilot: make(map[*Pilot]*PilotView, len(um.view.Pilots))}
	for _, pv := range um.view.Pilots {
		walk.byPilot[pv.Pilot] = &PilotView{}
	}
	um.park.forEachUnit(func(u *Unit) {
		if !u.State().Final() { // a stale entry is dropped when popped
			walk.count(acctParked, nil, 1, u.Desc.Cores)
		}
	})
	for u := range um.held {
		if u.State() == UnitPendingInput {
			walk.count(acctHeld, nil, 1, u.Desc.Cores)
		}
	}
	for u, pl := range um.charged {
		pv := walk.byPilot[pl]
		pv.InFlightUnits++
		pv.InFlightCores += u.Desc.Cores
		switch st := u.State(); {
		case st.Final():
		case st < UnitExecuting:
			walk.count(acctBoundWaiting, pl, 1, u.Desc.Cores)
		default:
			walk.count(acctRunning, pl, 1, u.Desc.Cores)
		}
	}
	if got, want := um.view.counts(), walk.counts(); got != want {
		panic(fmt.Sprintf("core: view drift: walk says %v, view says %v", want, got))
	}
	for _, pv := range um.view.Pilots {
		if got, want := pv.counts(), walk.byPilot[pv.Pilot].counts(); got != want {
			panic(fmt.Sprintf("core: view drift on pilot %s: walk says %v, view says %v", pv.Pilot.ID, want, got))
		}
	}
}

// counts lists the manager-wide counts auditView checks: waiting,
// running and held units and cores.
func (v *ClusterView) counts() [6]int {
	return [6]int{v.WaitingUnits, v.WaitingCores, v.RunningUnits, v.RunningCores, v.HeldUnits, v.HeldCores}
}

// counts lists the per-pilot counts auditView checks: in-flight, waiting
// and running units and cores.
func (pv *PilotView) counts() [6]int {
	return [6]int{pv.InFlightUnits, pv.InFlightCores, pv.WaitingUnits, pv.WaitingCores, pv.RunningUnits, pv.RunningCores}
}

// refreshProbes re-reads the cheap per-pilot live probes — pilot state
// and capacity, YARN metrics, attached stores — and reports whether any
// pilot has a live attached store. These change outside the manager's
// event stream (a resize completing, a replica staging), so every read
// re-probes; the bind loop calls this before each offer. Under
// debugViewAudit it first cross-checks the view's counts.
func (um *UnitManager) refreshProbes() bool {
	if debugViewAudit {
		um.auditView()
	}
	anyData := false
	for _, pv := range um.view.Pilots {
		pl := pv.Pilot
		pv.State = pl.State()
		pv.Nodes = pl.Capacity()
		pv.CoresPerNode = 0
		if res := pl.Resource(); res != nil && res.Machine != nil {
			pv.CoresPerNode = res.Machine.Spec.Node.Cores
		}
		pv.TotalCores = pv.Nodes * pv.CoresPerNode
		if m := pl.YARNMetrics(); m != nil && m.TotalVCores > 0 {
			pv.TotalCores = m.TotalVCores
		}
		pv.DataPilot = pl.DataPilot()
		if pv.DataPilot != nil && pv.DataPilot.Failed() {
			pv.DataPilot = nil // a killed store holds nothing to place by
		}
		pv.DataUsedBytes, pv.DataCapacityBytes, pv.PendingInputBytes = 0, 0, 0
		if dp := pv.DataPilot; dp != nil {
			st := dp.Store()
			pv.DataUsedBytes = st.UsedBytes()
			pv.DataCapacityBytes = st.CapacityBytes()
			anyData = true
		}
	}
	return anyData
}

// refreshView is the full refresh behind the public ClusterView: the
// per-pilot probes plus the per-pilot pending input bytes, re-walked
// over the current waiting units (parked and bound-but-not-executing).
func (um *UnitManager) refreshView() {
	v := &um.view
	v.Now = um.session.eng.Now()
	v.Cache = CacheSnapshot{}
	if um.rc != nil {
		v.Cache = CacheSnapshot{Enabled: true, Stats: um.rc.Stats()}
	}
	if !um.refreshProbes() {
		return // no attached stores: every PendingInputBytes is trivially 0
	}
	addInputs := func(u *Unit) {
		for _, ref := range u.Desc.Inputs {
			if ref.Unit == nil {
				continue
			}
			for _, pv := range v.Pilots {
				if pv.DataPilot != nil && ref.Unit.ReplicaOn(pv.DataPilot) {
					pv.PendingInputBytes += ref.Unit.SizeBytes()
				}
			}
		}
	}
	um.park.forEachUnit(func(u *Unit) {
		if u.acct == acctParked {
			addInputs(u)
		}
	})
	for u := range um.charged {
		if u.acct == acctBoundWaiting {
			addInputs(u)
		}
	}
}
