package sim

import (
	"cmp"
	"sort"
)

// Notifier parks processes on "state reached at least X" and releases
// them when a state that high is entered. It is the waiter half of
// Lifecycle, which fires its callbacks first and then reports the state
// here; a failure's final state wakes waiters parked on the states it
// skipped (state enums order lifecycle states before final ones).
//
// Waiters (AwaitMin) are indexed in a min-heap keyed by threshold, so an
// entered state releases exactly the satisfied ones in O(k log n) —
// entering a state never scans waiters it cannot release.
type Notifier[S cmp.Ordered] struct {
	eng *Engine
	// seq orders waiter registration, so releases fire in registration
	// order exactly as a single scanned list would.
	seq uint64
	// th is the threshold min-heap, ordered by (min, seq).
	th []*stateWaiter[S]
	// waking guards against re-entrant wakes: a state entered while a
	// wake is mid-flight queues behind it instead of interleaving with
	// the in-progress release scan.
	waking       bool
	pendingWakes []S
}

type stateWaiter[S cmp.Ordered] struct {
	// min is the release threshold.
	min S
	seq uint64
	ev  *Event
}

// NewNotifier creates a notifier on the engine.
func NewNotifier[S cmp.Ordered](eng *Engine) *Notifier[S] {
	return &Notifier[S]{eng: eng}
}

// Entered reports a state that was actually entered and releases every
// waiter whose threshold it reaches, in registration order. Nested
// entries (a trigger side effect entering another state) queue behind
// the in-flight one, so the heap is never mutated mid-release.
func (n *Notifier[S]) Entered(st S) {
	if len(n.th) == 0 && len(n.pendingWakes) == 0 {
		return
	}
	n.pendingWakes = append(n.pendingWakes, st)
	if n.waking {
		return
	}
	n.waking = true
	defer func() { n.waking = false }()
	for len(n.pendingWakes) > 0 {
		next := n.pendingWakes[0]
		n.pendingWakes = n.pendingWakes[1:]
		n.wakeOne(next)
	}
	n.pendingWakes = nil
}

// wakeOne releases the waiters st satisfies, in registration order.
func (n *Notifier[S]) wakeOne(st S) {
	var fired []*stateWaiter[S]
	for len(n.th) > 0 && n.th[0].min <= st {
		fired = append(fired, n.thPop())
	}
	// Pops arrive ordered by (min, seq); restore pure registration order
	// before triggering, so wake order is exactly what a single scanned
	// list produced.
	if len(fired) > 1 {
		sort.Slice(fired, func(i, j int) bool { return fired[i].seq < fired[j].seq })
	}
	for _, w := range fired {
		w.ev.Trigger()
	}
}

// AwaitMin parks p until a state >= min is entered; it returns
// immediately if the current state cur already is. State enums order
// lifecycle states below final ones, so "reached X or ended" waits
// reduce to a threshold.
func (n *Notifier[S]) AwaitMin(p *Proc, cur S, min S) {
	if cur >= min {
		return
	}
	n.seq++
	w := &stateWaiter[S]{min: min, seq: n.seq, ev: NewEvent(n.eng)}
	n.thPush(w)
	p.Wait(w.ev)
}

// thPush inserts w into the threshold heap.
func (n *Notifier[S]) thPush(w *stateWaiter[S]) {
	n.th = append(n.th, w)
	i := len(n.th) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !thLess(n.th[i], n.th[parent]) {
			break
		}
		n.th[i], n.th[parent] = n.th[parent], n.th[i]
		i = parent
	}
}

// thPop removes and returns the minimum-threshold waiter.
func (n *Notifier[S]) thPop() *stateWaiter[S] {
	top := n.th[0]
	last := len(n.th) - 1
	n.th[0] = n.th[last]
	n.th[last] = nil
	n.th = n.th[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(n.th) && thLess(n.th[l], n.th[small]) {
			small = l
		}
		if r < len(n.th) && thLess(n.th[r], n.th[small]) {
			small = r
		}
		if small == i {
			break
		}
		n.th[i], n.th[small] = n.th[small], n.th[i]
		i = small
	}
	return top
}

func thLess[S cmp.Ordered](a, b *stateWaiter[S]) bool {
	if a.min != b.min {
		return a.min < b.min
	}
	return a.seq < b.seq
}
