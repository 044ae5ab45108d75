package core

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Unit is a Compute-Unit: a self-contained piece of work submitted
// through the Unit-Manager and executed by a Pilot-Agent.
type Unit struct {
	ID      string
	Desc    ComputeUnitDescription
	session *Session

	// Lifecycle holds the unit's state, per-state Timestamps and, for
	// UnitFailed, the cause in Err.
	sim.Lifecycle[*Unit, UnitState]

	// Pilot is the pilot the Unit-Manager bound this unit to. It is nil
	// before the first binding and between a pilot's death and the
	// failover rebinding.
	Pilot *Pilot

	// acct is the ClusterView bucket the unit currently occupies and
	// acctPilot the pilot that bucket is attributed to (bound units
	// only); the manager maintains both through setAcct so views are
	// running sums instead of per-read walks.
	acct      acctPhase
	acctPilot *Pilot
}

// acctPhase names the ClusterView bucket a unit occupies; see setAcct.
type acctPhase uint8

const (
	// acctNone: not counted anywhere — before submission bookkeeping,
	// after a final state, or invisible by design (cache-coalesced
	// waiters in UnitPendingResult).
	acctNone acctPhase = iota
	// acctParked: in the park index awaiting (re)binding, or popped
	// from it and being offered to the policy.
	acctParked
	// acctHeld: parked in UnitPendingInput behind unreplicated inputs.
	acctHeld
	// acctBoundWaiting: bound to a pilot but not yet executing.
	acctBoundWaiting
	// acctRunning: executing on its pilot.
	acctRunning
)

// StartupTime is the paper's Figure 5 inset metric: submission to
// executable start. Valid once the unit has reached UnitExecuting.
func (u *Unit) StartupTime() sim.Duration {
	return u.Timestamps[UnitExecuting] - u.Timestamps[UnitSchedulingUM]
}

// TimeToCompletion is submission to final state.
func (u *Unit) TimeToCompletion() sim.Duration {
	if st := u.State(); st.Final() {
		return u.Timestamps[st] - u.Timestamps[UnitSchedulingUM]
	}
	return 0
}

// recordUnitState emits the unit's state transition to the session's
// flight recorder, when one is attached; the nil check is the only cost
// paid without one.
func recordUnitState(u *Unit, st UnitState, detail string) {
	r := u.session.rec
	if r == nil {
		return
	}
	ev := obs.Event{
		Kind: obs.KindUnitState, Unit: u.ID, Name: u.Desc.Name,
		State: st.String(), Cores: u.Desc.Cores, Detail: detail,
	}
	if u.Pilot != nil {
		ev.Pilot = u.Pilot.ID
	}
	r.Record(ev)
}

// UnitManager binds Compute-Units to pilots and dispatches them through
// the coordination store (paper Figure 3, steps U.1–U.7).
//
// Since v2 the binding decision is delegated to a pluggable
// UnitScheduler (see WithScheduler and RegisterUnitScheduler), and the
// manager runs a bind loop instead of pushing eagerly at Submit: units a
// policy defers park in a manager-level queue and are retried on every
// scheduling event (pilot state change, unit completion, new pilot).
// Units bound to a pilot that reaches a final state while they still
// wait in the coordination store (before its agent picked them up) are
// rebound to the surviving pilots — fault-tolerant failover, under
// every policy; units the agent already started processing are canceled
// with the pilot.
type UnitManager struct {
	session *Session
	policy  UnitScheduler

	// charged maps each bound, not-yet-final unit to the pilot currently
	// charged for it.
	charged map[*Unit]*Pilot

	// park indexes the units awaiting (re)binding by (priority,
	// submission order) and, for capacity-gated policies, by core
	// demand — the structure that lets a pass re-offer only what the
	// cluster could admit instead of the whole backlog.
	park parkIndex
	// policyGated records whether the policy implements CapacityGated:
	// its parked units re-offer only when admissible. fullReoffer forces
	// the next pass to offer every parked unit regardless (set on pilot
	// topology/state events, which can change admissibility and
	// ErrUnschedulable answers); pilotGen invalidates the pass's cached
	// candidate set on those same events.
	policyGated bool
	fullReoffer bool
	pilotGen    uint64
	cands       passCands
	// held maps each unit parked in UnitPendingInput to its count of
	// unresolved input Data-Units. A unit enters the map at Submit when
	// some input is not yet replicated, and leaves it either into the
	// pending queue (every input reached StateReplicated — the
	// dependency-aware release) or into UnitFailed (an input retired
	// unread). Held units are demand that cannot run yet: ClusterView
	// reports them as Held, not Waiting.
	held map[*Unit]int
	// rc is the content-addressed result cache (WithResultCache), nil
	// without the option — the nil check is the only cost the cache adds
	// to an unconfigured manager. rcKeys maps each in-flight leader unit
	// to the key its completion will settle.
	rc     *cache.ResultCache[cachedResult, *Unit]
	rcKeys map[*Unit]cache.Key
	// wake signals the bind loop; kicks coalesce while a pass runs.
	wake *sim.Queue[struct{}]
	// observers run on every scheduling event (submission, unit
	// completion, pilot state change) — the hook the Autoscaler's
	// control loop hangs off.
	observers []func()
	// passing marks a scheduling pass in flight (its store round trips
	// block in virtual time); rerun asks it to go around once more, and
	// passDone wakes processes waiting for it to retire.
	passing  bool
	rerun    bool
	passDone *sim.Event

	// view is the manager's one store of demand and per-pilot load: its
	// counts are updated in place on every unit transition (setAcct,
	// offerOne, uncharge, countFinal), so a read costs only the refresh
	// of its live probes.
	view ClusterView

	// passes counts completed schedule-pass batches and offered the
	// units handed to the policy across them (a unit re-offered by a
	// later pass counts again) — the bind loop's raw work measure, which
	// the scale sweep reports as rescan cost.
	passes  int64
	offered int64
}

// setAcct moves u between ClusterView buckets, applying the deltas to
// the view's manager-wide and per-pilot Waiting, Held and Running
// counts. It is the only code that changes them, so every transition
// path (submit, hold, release, bind, execute, final) stays balanced by
// construction; the auditView cross-check recomputes them by full walk
// in tests.
func (um *UnitManager) setAcct(u *Unit, phase acctPhase, pl *Pilot) {
	if u.acct == phase && u.acctPilot == pl {
		return
	}
	um.view.count(u.acct, u.acctPilot, -1, -u.Desc.Cores)
	u.acct, u.acctPilot = phase, pl
	um.view.count(phase, pl, 1, u.Desc.Cores)
}

// count adds units and cores to the counts of bucket phase, manager-wide
// and, for the bound phases, on pilot pl.
func (v *ClusterView) count(phase acctPhase, pl *Pilot, units, cores int) {
	switch phase {
	case acctParked:
		v.WaitingUnits += units
		v.WaitingCores += cores
	case acctHeld:
		v.HeldUnits += units
		v.HeldCores += cores
	case acctBoundWaiting:
		v.WaitingUnits += units
		v.WaitingCores += cores
		if pv := v.byPilot[pl]; pv != nil {
			pv.WaitingUnits += units
			pv.WaitingCores += cores
		}
	case acctRunning:
		v.RunningUnits += units
		v.RunningCores += cores
		if pv := v.byPilot[pl]; pv != nil {
			pv.RunningUnits += units
			pv.RunningCores += cores
		}
	}
}

// enqueueUnit parks u in the bind queue. gated routes policy re-parks
// into the capacity-indexed tier; fresh arrivals always enter the must
// tier so their first offer can still bind, park, or fail them.
func (um *UnitManager) enqueueUnit(u *Unit, gated bool) {
	um.setAcct(u, acctParked, nil)
	um.park.push(u, gated)
}

// UnitManagerOption configures a UnitManager built by NewUnitManager.
type UnitManagerOption func(*umConfig)

type umConfig struct {
	scheduler        string
	resultCache      bool
	resultCacheBytes int64
}

// WithScheduler selects the manager's unit-scheduling policy by
// registered name (default: SchedulerRoundRobin). NewUnitManager fails
// with ErrUnknownScheduler for names never registered.
func WithScheduler(name string) UnitManagerOption {
	return func(c *umConfig) { c.scheduler = name }
}

// NewUnitManager creates a unit manager on the session.
func NewUnitManager(s *Session, opts ...UnitManagerOption) (*UnitManager, error) {
	cfg := umConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	policy, err := newUnitScheduler(cfg.scheduler)
	if err != nil {
		return nil, err
	}
	um := &UnitManager{
		session: s,
		policy:  policy,
		charged: make(map[*Unit]*Pilot),
		held:    make(map[*Unit]int),
		wake:    sim.NewQueue[struct{}](s.eng),
		view:    ClusterView{byPilot: make(map[*Pilot]*PilotView)},
	}
	_, um.policyGated = policy.(CapacityGated)
	um.cands.um = um
	if cfg.resultCache {
		um.rc = cache.NewResultCache[cachedResult, *Unit](cfg.resultCacheBytes)
		um.rcKeys = make(map[*Unit]cache.Key)
	}
	s.nextUM++
	s.eng.SpawnDaemon(fmt.Sprintf("umgr:%02d", s.nextUM), um.bindLoop)
	return um, nil
}

// Scheduler returns the manager's unit-scheduling policy name.
func (um *UnitManager) Scheduler() string { return um.policy.Name() }

// Session returns the session the manager was built on — the path
// sibling subsystems (the UnitGraph) reach the session's flight
// recorder through.
func (um *UnitManager) Session() *Session { return um.session }

// AddPilot registers a pilot as an execution target and hooks its state
// transitions into the bind loop: a pilot becoming Active can unblock
// late-binding policies, and a pilot reaching a final state triggers
// failover rebinding of its still-queued units.
func (um *UnitManager) AddPilot(pl *Pilot) error {
	if pl == nil {
		return fmt.Errorf("core: nil pilot")
	}
	if um.view.byPilot[pl] != nil {
		return fmt.Errorf("core: pilot %s already added", pl.ID)
	}
	pv := &PilotView{Pilot: pl}
	um.view.Pilots = append(um.view.Pilots, pv)
	um.view.byPilot[pl] = pv
	um.pilotGen++
	um.fullReoffer = true
	pl.OnStateChange(func(pl *Pilot, st PilotState) {
		// Pilot topology/state events can change what is admissible and
		// what is forever unschedulable: invalidate the cached candidate
		// set and force the next pass to re-offer everything once.
		um.pilotGen++
		um.fullReoffer = true
		if st.Final() {
			um.rebindOrphans(pl)
		}
		um.kick()
	})
	return nil
}

// kick wakes the bind loop; kicks coalesce (at most one wake buffered).
// Observers are notified on every kick.
func (um *UnitManager) kick() {
	if um.wake.Len() == 0 {
		um.wake.Put(struct{}{})
	}
	um.notifyObservers()
}

// observe registers fn to run on every scheduling event the manager
// sees: unit submission, unit completion, pilot state changes. The
// Autoscaler wires its control loop here.
func (um *UnitManager) observe(fn func()) {
	um.observers = append(um.observers, fn)
}

func (um *UnitManager) notifyObservers() {
	for _, fn := range um.observers {
		fn()
	}
	if !um.passing {
		// Gauge samples batch per pass iteration (schedulePass samples
		// after each one) instead of per kick — a pass binding thousands
		// of units kicks thousands of times but the series only needs
		// the settled points.
		um.sampleGauges()
	}
}

// sampleGauges appends one live-gauge reading to the attached flight
// recorder's series — after observers (the autoscaler) ran, so their
// effects land in the same tick. Without a recorder the cost is one nil
// check.
func (um *UnitManager) sampleGauges() {
	r := um.session.rec
	if r == nil {
		return
	}
	v := um.ClusterView()
	g := obs.GaugeSample{
		QueueDepth:   v.WaitingUnits,
		WaitingCores: v.WaitingCores,
		HeldUnits:    v.HeldUnits,
		HeldCores:    v.HeldCores,
		RunningUnits: v.RunningUnits,
		RunningCores: v.RunningCores,
	}
	if v.Cache.Enabled {
		g.CacheEntries = v.Cache.Entries
		g.CacheBytes = v.Cache.UsedBytes
	}
	for _, pv := range v.Pilots {
		if pv.State.Final() {
			continue
		}
		g.TotalCores += pv.TotalCores
		if dp := pv.DataPilot; dp != nil {
			if g.StoreFree == nil {
				g.StoreFree = make(map[string]int64)
			}
			g.StoreFree[dp.Label()] = pv.DataFreeBytes()
		}
	}
	if g.TotalCores > 0 {
		g.Utilization = float64(g.RunningCores) / float64(g.TotalCores)
	}
	r.Sample(g)
}

// bindLoop is the manager's scheduling daemon: it re-runs the scheduling
// pass on every kick (pilot state change, unit completion, new pilot),
// binding parked units and failing the hopeless ones.
func (um *UnitManager) bindLoop(p *sim.Proc) {
	for {
		um.wake.Get(p)
		um.schedulePass(p)
	}
}

// schedulePass offers the offerable part of the parked backlog to the
// policy. Passes are single-flight: a pass requested while one runs
// (whose store round trips block in virtual time) first asks the
// running pass to go around again, then blocks until it retires — so
// when Submit's pass call returns, every unit submitted before it has
// been offered to the policy (eager policies: bound), no matter which
// process placed it.
//
// Each iteration drains a batch: the park entries stamped before the
// iteration began, best (priority, submission order) first off the
// heaps. Under a CapacityGated policy, gated classes whose core demand
// no Active pilot can admit are skipped wholesale — the collapse of the
// old every-kick full re-offer — except on fullReoffer iterations
// (pilot topology/state events), which re-offer everything so
// admissibility and ErrUnschedulable answers stay current. Units the
// policy re-parks, and entries stamped mid-iteration, go aside until
// the iteration ends. Views read mid-iteration count the whole parked
// backlog, the batch included.
func (um *UnitManager) schedulePass(p *sim.Proc) {
	for um.passing {
		um.rerun = true
		p.Wait(um.passDone)
	}
	um.passing = true
	um.passDone = sim.NewEvent(um.session.eng)
	defer func() {
		um.passing = false
		um.passDone.Trigger()
	}()
	for {
		um.rerun = false
		um.passes++
		full := um.fullReoffer || !um.policyGated
		um.fullReoffer = false
		um.runBatch(p, full)
		um.park.flushAside()
		um.sampleGauges()
		if !um.rerun {
			return
		}
	}
}

// runBatch drains one iteration's batch — everything parked before it
// began — through the policy.
func (um *UnitManager) runBatch(p *sim.Proc, full bool) {
	boundary := um.park.nextSeq
	for {
		um.cands.ensure()
		admit := func(cores int) bool { return full || um.cands.admits(cores) }
		if !um.park.anyOfferable(admit) {
			// Nothing left that could bind: the remainder (gated classes
			// beyond current capacity) stays parked.
			return
		}
		e, ok := um.park.popBest()
		if !ok {
			return
		}
		if e.seq >= boundary {
			// Stamped mid-iteration (policy re-park, released input,
			// failover orphan): next iteration's work.
			um.park.setAside(e)
			continue
		}
		if e.u.State().Final() || e.u.acct != acctParked {
			continue // went final while parked: drop the stale entry
		}
		if e.gated && !admit(e.cores) {
			// Inadmissible, but ranked above a possible offer: keep the
			// park (restamped at its processing position, like the old
			// pass's re-append) without paying the policy round trip.
			um.park.stamp(&e)
			um.park.setAside(e)
			continue
		}
		um.offerOne(p, e.u)
	}
}

// offerOne runs the policy for one unit: bind, park, or fail.
func (um *UnitManager) offerOne(p *sim.Proc, u *Unit) {
	um.offered++
	pc := &um.cands
	if len(pc.list) == 0 {
		sim.Fail(&u.Lifecycle, UnitFailed,
			fmt.Errorf("core: unit %s: %w among %d registered", u.ID, ErrNoLivePilot, len(um.view.Pilots)))
		return
	}
	pl, err := um.policy.Pick(p, u, pc.list)
	if err != nil {
		sim.Fail(&u.Lifecycle, UnitFailed, fmt.Errorf("core: unit %s: %w", u.ID, err))
		return
	}
	if pl == nil {
		// Deferred (late binding): park until the next scheduling event.
		um.parkAgain(u)
		return
	}
	c := pc.byPilot[pl]
	if c == nil {
		// A (custom) policy returned a pilot outside the candidates it
		// was offered — foreign, or already final before the pass: fail
		// the unit rather than corrupt bookkeeping or retry forever.
		sim.Fail(&u.Lifecycle, UnitFailed,
			fmt.Errorf("core: unit %s: scheduler %q picked pilot %s, which was not offered to it",
				u.ID, um.policy.Name(), pl.ID))
		return
	}
	if pl.State().Final() {
		// The picked pilot died while the policy blocked in virtual
		// time: park and retry with fresh candidates.
		um.parkAgain(u)
		um.kick()
		return
	}
	// The bind event reports the pilot's load as the policy saw it, so
	// it is recorded before the unit is charged.
	pv := c.View
	if r := um.session.rec; r != nil {
		r.Record(obs.Event{
			Kind: obs.KindBind, Unit: u.ID, Name: u.Desc.Name, Pilot: pl.ID,
			Policy: um.policy.Name(), Cores: u.Desc.Cores,
			Detail: fmt.Sprintf("%d/%d cores in flight", pv.InFlightCores, pv.TotalCores),
		})
	}
	u.Pilot = pl
	um.charged[u] = pl
	pv.InFlightUnits++
	pv.InFlightCores += u.Desc.Cores
	um.setAcct(u, acctBoundWaiting, pl)
	sim.Advance(&u.Lifecycle, UnitPendingAgent)
	um.session.store.Push(p, pl.queueName, u)
}

// parkAgain re-parks an offered unit, stamped at its processing
// position and set aside until the current iteration ends. Gated
// policies' re-parks enter the capacity-indexed tier.
func (um *UnitManager) parkAgain(u *Unit) {
	um.setAcct(u, acctParked, nil)
	e := parkEntry{u: u, prio: u.Desc.Priority, cores: u.Desc.Cores, gated: um.policyGated}
	um.park.stamp(&e)
	if um.passing {
		um.park.setAside(e)
	} else {
		um.park.insert(e)
	}
}

// passCands is the per-pass candidate set: one Candidate per live
// pilot, with a membership map replacing the old per-unit linear scan.
// The set rebuilds only when the pilot topology or a pilot's state
// changed (pilotGen); the numeric fields and live probes refresh before
// every offer, so policies see the same freshness the old per-unit
// ClusterView rebuild gave them, without the per-unit allocations.
type passCands struct {
	um       *UnitManager
	pilotGen uint64
	all      []Candidate
	list     []*Candidate
	byPilot  map[*Pilot]*Candidate
	// maxFree is the largest admittable core demand across candidates:
	// the admission gate for capacity-indexed classes. Pilots with
	// unknown capacity admit anything, as pickAdmissible does.
	maxFree int
}

// admits reports whether some candidate could admit a unit of the given
// core demand under the pickAdmissible rule.
func (pc *passCands) admits(cores int) bool { return cores <= pc.maxFree }

// ensure refreshes the candidate set for the next offer.
func (pc *passCands) ensure() {
	um := pc.um
	if pc.pilotGen != um.pilotGen {
		// Sized for every registered pilot, so the appends never move
		// the candidates list and byPilot point into.
		pc.all = make([]Candidate, 0, len(um.view.Pilots))
		pc.list = pc.list[:0]
		pc.byPilot = make(map[*Pilot]*Candidate, len(um.view.Pilots))
		for _, pv := range um.view.Pilots {
			if pv.Pilot.State().Final() {
				continue
			}
			pc.all = append(pc.all, Candidate{Pilot: pv.Pilot, View: pv})
			c := &pc.all[len(pc.all)-1]
			pc.list = append(pc.list, c)
			pc.byPilot[pv.Pilot] = c
		}
		pc.pilotGen = um.pilotGen
	}
	um.refreshProbes()
	pc.maxFree = 0
	for _, c := range pc.list {
		pv := c.View
		c.InFlightUnits, c.InFlightCores = pv.InFlightUnits, pv.InFlightCores
		if st := pv.State; st != PilotActive && st != PilotResizing {
			continue
		}
		switch free := pv.TotalCores - pv.InFlightCores; {
		case pv.TotalCores == 0:
			pc.maxFree = int(^uint(0) >> 1) // unknown capacity admits all
		case free > pc.maxFree:
			pc.maxFree = free
		}
	}
}

// countFinal credits a finished unit to its pilot's lifetime
// completion counters. Cache-completed units never bound, so they have
// no pilot to credit; their accounting lives in the cache counters.
func (um *UnitManager) countFinal(u *Unit, st UnitState) {
	pv := um.view.byPilot[u.Pilot]
	if pv == nil {
		return
	}
	if st == UnitDone {
		pv.DoneUnits++
	} else {
		pv.FailedUnits++
	}
}

// BindPassStats reports the bind loop's lifetime work: passes is the
// number of scheduling batches run, offered the units handed to the
// policy across them (re-offers count). offered/passes ≫ 1 on a
// late-binding policy is the O(N²) rescan cost the scale sweep
// characterizes.
func (um *UnitManager) BindPassStats() (passes, offered int64) {
	return um.passes, um.offered
}

// uncharge drops the unit from the in-flight bookkeeping.
func (um *UnitManager) uncharge(u *Unit) {
	pl, ok := um.charged[u]
	if !ok {
		return
	}
	delete(um.charged, u)
	if pv := um.view.byPilot[pl]; pv != nil {
		pv.InFlightUnits--
		pv.InFlightCores -= u.Desc.Cores
	}
}

// rebindOrphans moves units that were bound to the dead pilot but never
// picked up by its agent back into the pending queue. Clearing u.Pilot
// makes the dead pilot's queued copy stale (the agent-side guard drops
// it), so a unit can never run twice.
func (um *UnitManager) rebindOrphans(dead *Pilot) {
	var orphans []*Unit
	for u, pl := range um.charged {
		if pl == dead && u.State() == UnitPendingAgent {
			orphans = append(orphans, u)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].ID < orphans[j].ID })
	for _, u := range orphans {
		um.uncharge(u)
		u.Pilot = nil
		// Failover rebinds enter the must tier: the next pass is a full
		// one anyway (the pilot's death set fullReoffer), and their
		// first re-offer must re-evaluate schedulability.
		um.enqueueUnit(u, false)
	}
}

// Submit registers the units with the manager and runs a scheduling pass
// on p (paying the store round trips for units that bind immediately,
// steps U.1–U.2). Eager policies — round-robin, least-loaded — bind
// every unit before Submit returns, as in v1; late-binding policies may
// leave units parked, to be bound by the bind loop once an eligible
// pilot is available. Units whose input Data-Units are not yet
// replicated are held in UnitPendingInput — under every policy — and
// enter the bind queue only when the last input replicates (see
// watchInputs); a unit whose input retires unread fails with
// data.ErrUnavailable instead. Under WithResultCache, cacheable units
// are first offered to the result cache: a hit completes immediately, a
// duplicate of an in-flight unit parks in UnitPendingResult, and only
// cache leaders and uncacheable units continue into the flow above.
// Submit fails with ErrNoPilots when no
// pilot was added; a unit that can never be placed fails individually
// (see ErrNoLivePilot, ErrUnschedulable) rather than failing the batch.
func (um *UnitManager) Submit(p *sim.Proc, descs []ComputeUnitDescription) ([]*Unit, error) {
	if len(um.view.Pilots) == 0 {
		return nil, fmt.Errorf("core: %w", ErrNoPilots)
	}
	units := make([]*Unit, 0, len(descs))
	for _, d := range descs {
		um.session.nextUnit++
		u := &Unit{
			ID:      fmt.Sprintf("unit.%06d", um.session.nextUnit),
			Desc:    d.withDefaults(),
			session: um.session,
		}
		u.Lifecycle = sim.NewLifecycle(um.session.eng, u, UnitDone, recordUnitState)
		u.OnStateChange(func(u *Unit, st UnitState) {
			if st == UnitExecuting {
				um.setAcct(u, acctRunning, u.acctPilot)
			}
			if st.Final() {
				um.setAcct(u, acctNone, nil)
				um.countFinal(u, st)
				um.uncharge(u)
				// A leader's end releases its coalesced waiters. Waiters
				// sent back to execute will produce the dead leader's
				// declared outputs themselves, so those outputs are not
				// orphaned and must not be canceled here.
				released := um.settleFlight(u, st)
				um.kick() // freed capacity may unblock parked units
				if st != UnitDone && !released {
					cancelOrphanOutputs(u)
				}
			}
		})
		if um.acquireCached(p, u) {
			// Result-cache hit (completed just now, from the cached
			// result) or coalesced duplicate (parked in UnitPendingResult
			// until the in-flight leader settles): either way the unit
			// never enters the bind loop.
			units = append(units, u)
			continue
		}
		unresolved, err := um.watchInputs(u)
		switch {
		case err != nil:
			// An input already retired unread: the unit can never run.
			// Failing it here fires the final-state hook above, which
			// cancels the unit's own still-new outputs — the failure
			// cascades down a dependency graph at submission time.
			sim.Fail(&u.Lifecycle, UnitFailed, err)
		case unresolved > 0:
			// Dependency-aware late binding: the unit is not offered to
			// the policy until every input Data-Unit is replicated. The
			// watch callbacks release (or fail) it.
			um.held[u] = unresolved
			um.setAcct(u, acctHeld, nil)
			um.recordHold(u, unresolved)
			sim.Advance(&u.Lifecycle, UnitPendingInput)
		default:
			sim.Advance(&u.Lifecycle, UnitSchedulingUM)
			um.enqueueUnit(u, false)
		}
		units = append(units, u)
	}
	um.notifyObservers() // autoscalers see the new backlog
	um.schedulePass(p)
	return units, nil
}

// unavailableInput builds the failure cause for a unit whose input
// Data-Unit retired without ever becoming readable — the same wrap shape
// the agent's awaitInputs produces, so both paths match
// data.ErrUnavailable through errors.Is.
func unavailableInput(u *Unit, du *data.Unit, st data.UnitState) error {
	return fmt.Errorf("core: unit %s input %s: %w (%v)", u.ID, du.ID, data.ErrUnavailable, st)
}

// watchInputs inspects the unit's input Data-Units at submission: inputs
// already replicated need no watch, an input already retired fails the
// unit (the returned error), and each still-staging input registers a
// callback on the Data-Unit's lifecycle — the unit is released into
// the bind queue when the last one replicates, with no polling anywhere.
// It returns the number of unresolved inputs the caller must hold the
// unit for.
func (um *UnitManager) watchInputs(u *Unit) (int, error) {
	unresolved := 0
	for _, ref := range u.Desc.Inputs {
		du := ref.Unit
		if du == nil {
			continue
		}
		st := du.State()
		if st == data.StateReplicated {
			continue // readable now; the agent re-checks at stage time
		}
		if st.Final() {
			return 0, unavailableInput(u, du, st)
		}
		unresolved++
		resolved := false
		du.OnStateChange(func(du *data.Unit, st data.UnitState) {
			// The immediate fire for a unit already StagingIn matches
			// neither branch; only future transitions resolve the input.
			switch {
			case resolved || u.State().Final():
			case st == data.StateReplicated:
				resolved = true
				um.releaseInput(u)
			case st.Final():
				resolved = true
				um.failHeld(u, unavailableInput(u, du, st))
			}
		})
	}
	return unresolved, nil
}

// releaseInput retires one resolved input of a held unit; when the last
// input replicates the unit leaves UnitPendingInput for the pending
// queue and the bind loop is kicked — the dependency-aware release path.
func (um *UnitManager) releaseInput(u *Unit) {
	n, held := um.held[u]
	if !held {
		return
	}
	if n--; n > 0 {
		um.held[u] = n
		return
	}
	delete(um.held, u)
	if r := um.session.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindRelease, Op: "input", Unit: u.ID,
			Name: u.Desc.Name, Cores: u.Desc.Cores})
	}
	sim.Advance(&u.Lifecycle, UnitSchedulingUM)
	um.enqueueUnit(u, false)
	um.kick()
}

// recordHold emits a hold-edge event for a unit parking in
// UnitPendingInput with unresolved unreplicated inputs.
func (um *UnitManager) recordHold(u *Unit, unresolved int) {
	if r := um.session.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindHold, Op: "input", Unit: u.ID,
			Name: u.Desc.Name, Cores: u.Desc.Cores,
			Detail: fmt.Sprintf("%d unreplicated inputs", unresolved)})
	}
}

// failHeld fails a held unit whose input retired unread. The unit's
// final-state hook cancels its own still-new outputs, so the failure
// cascades to every transitive consumer through the ErrDataUnavailable
// path — orphaned descendants never bind.
func (um *UnitManager) failHeld(u *Unit, err error) {
	if _, held := um.held[u]; !held {
		return
	}
	delete(um.held, u)
	if r := um.session.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindRelease, Op: "failed", Unit: u.ID,
			Name: u.Desc.Name, Detail: err.Error()})
	}
	sim.Fail(&u.Lifecycle, UnitFailed, err)
}

// cancelOrphanOutputs retires the declared output Data-Units of a unit
// that failed or was canceled before staging them: outputs still in
// StateNew are canceled so consumers parked on them fail with
// ErrDataUnavailable instead of waiting forever. Outputs another
// producer is already staging (or has staged) are left alone.
func cancelOrphanOutputs(u *Unit) {
	for _, ref := range u.Desc.Outputs {
		if ref.Unit != nil && ref.Unit.State() == data.StateNew {
			ref.Unit.Manager().Cancel(ref.Unit)
		}
	}
}

// WaitAll blocks until every unit reaches a final state, parking on each
// unit's Wait in turn.
func (um *UnitManager) WaitAll(p *sim.Proc, units []*Unit) {
	for _, u := range units {
		u.Wait(p)
	}
}
