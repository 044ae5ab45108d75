package sim

import "cmp"

// State is a lifecycle state enum: ordered, with every final state
// above every non-final one, so "reached X or ended" is a threshold.
type State interface {
	cmp.Ordered
	Final() bool
}

// Lifecycle is the state model shared by pilots, Compute-Units and
// Data-Units: the current state, when each state was entered, the
// failure cause, the OnStateChange callbacks and the waiters parked on
// a state. Owners embed it, so State, OnStateChange, Wait and WaitState
// are their methods; the mutators Advance, Fail and Reenter are
// package-level functions, so an owner re-exported through a public
// package never gains a public way to move its own state.
//
// Every entered state is stamped, handed to the owner's recorder hook,
// fanned out to the callbacks in registration order and then released
// to the parked waiters it reaches. States skipped on failure paths are
// never entered: they fire no callback and get no timestamp, but the
// final state wakes the waiters parked on them.
type Lifecycle[T any, S State] struct {
	state S
	// Timestamps records when each state was entered.
	Timestamps map[S]Duration
	// Err records the failure cause of a Fail.
	Err error

	owner T
	// final is the smallest final state: the threshold Wait parks on.
	final S
	// record reports each entered state (with a detail, the failure
	// cause for Fail) to the owner's flight recorder.
	record func(T, S, string)
	cbs    []func(T, S)
	watch  Notifier[S]
}

// NewLifecycle returns a lifecycle for owner in the zero state, stamped
// at the engine's current time. final is the smallest final state;
// record is called for every state entered.
func NewLifecycle[T any, S State](eng *Engine, owner T, final S, record func(T, S, string)) Lifecycle[T, S] {
	var zero S
	return Lifecycle[T, S]{
		Timestamps: map[S]Duration{zero: eng.Now()},
		owner:      owner,
		final:      final,
		record:     record,
		watch:      Notifier[S]{eng: eng},
	}
}

// State returns the current state.
func (l *Lifecycle[T, S]) State() S { return l.state }

// OnStateChange registers fn to run for every state entered from now
// on, in registration order, synchronously at the transition's virtual
// time. If the lifecycle has already left its zero state, fn is also
// invoked once, immediately, with the current state, so a late
// subscriber cannot miss a final state.
func (l *Lifecycle[T, S]) OnStateChange(fn func(T, S)) {
	l.cbs = append(l.cbs, fn)
	var zero S
	if l.state != zero {
		fn(l.owner, l.state)
	}
}

// Wait blocks p until a final state is reached and returns it. However
// many processes park here, the wait is indexed, never scanned.
func (l *Lifecycle[T, S]) Wait(p *Proc) S {
	l.watch.AwaitMin(p, l.state, l.final)
	return l.state
}

// WaitState blocks p until st or a final state is reached, so a failed
// owner never strands its waiters. It reports whether st was actually
// entered.
func (l *Lifecycle[T, S]) WaitState(p *Proc, st S) bool {
	l.watch.AwaitMin(p, l.state, min(st, l.final))
	_, reached := l.Timestamps[st]
	return reached
}

// Advance moves l into st. Skipping forward is allowed (failure paths
// do); moving backwards, sideways or out of a final state is a no-op.
func Advance[T any, S State](l *Lifecycle[T, S], st S) {
	if l.state.Final() || st <= l.state {
		return
	}
	l.enter(st, "")
}

// Fail moves l into the final state failed with cause err, which lands
// in Err and, as the detail, in the recorder hook. No-op once final.
func Fail[T any, S State](l *Lifecycle[T, S], failed S, err error) {
	if l.state.Final() {
		return
	}
	l.Err = err
	l.enter(failed, err.Error())
}

// Reenter moves l back into the earlier state st and announces it to the
// recorder, the callbacks and the waiters again, keeping st's original
// timestamp — the pilot's Resizing→Active return. No-op once final.
func Reenter[T any, S State](l *Lifecycle[T, S], st S) {
	if l.state.Final() {
		return
	}
	l.state = st
	l.announce(st, "")
}

// enter makes st the current state and stamps it before announcing it.
func (l *Lifecycle[T, S]) enter(st S, detail string) {
	l.state = st
	l.Timestamps[st] = l.watch.eng.Now()
	l.announce(st, detail)
}

// announce records st, fires the callbacks registered so far, then wakes
// the waiters st reaches. A callback may enter a further state; that
// nested state's callbacks and wakes complete before st's wakes.
func (l *Lifecycle[T, S]) announce(st S, detail string) {
	l.record(l.owner, st, detail)
	for _, fn := range l.cbs {
		fn(l.owner, st)
	}
	l.watch.Entered(st)
}
