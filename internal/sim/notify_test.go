package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestNotifierAwaitMinThreshold: threshold waiters wake exactly when a
// state at or above their threshold is entered, and return immediately
// when the current state already satisfies them.
func TestNotifierAwaitMinThreshold(t *testing.T) {
	e := NewEngine()
	n := NewNotifier[int](e)
	var woke []string
	e.Spawn("low", func(p *Proc) {
		n.AwaitMin(p, 0, 2)
		woke = append(woke, "low")
	})
	e.Spawn("high", func(p *Proc) {
		n.AwaitMin(p, 0, 5)
		woke = append(woke, "high")
	})
	e.Spawn("already", func(p *Proc) {
		n.AwaitMin(p, 7, 5) // current state past the threshold: no wait
		woke = append(woke, "already")
	})
	e.At(time.Second, func() { n.Entered(1) })   // wakes nobody
	e.At(2*time.Second, func() { n.Entered(3) }) // wakes low only
	e.At(3*time.Second, func() { n.Entered(6) }) // wakes high
	e.Run()
	if fmt.Sprint(woke) != "[already low high]" {
		t.Fatalf("wake sequence = %v, want [already low high]", woke)
	}
}

// TestNotifierWakeOrdering: waiters released by the same entered state
// wake in registration order, no matter how their thresholds interleave —
// the heap must not reorder them.
func TestNotifierWakeOrdering(t *testing.T) {
	e := NewEngine()
	n := NewNotifier[int](e)
	var order []int
	// Registration order 0..5 alternates high and low thresholds; a
	// (min, seq) heap pops the low thresholds first, so a notifier that
	// triggered in pop order would wake [1 3 4 5 0 2].
	spawn := func(i int, wait func(p *Proc)) {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			wait(p)
			order = append(order, i)
		})
	}
	spawn(0, func(p *Proc) { n.AwaitMin(p, 0, 9) })
	spawn(1, func(p *Proc) { n.AwaitMin(p, 0, 2) })
	spawn(2, func(p *Proc) { n.AwaitMin(p, 0, 9) })
	spawn(3, func(p *Proc) { n.AwaitMin(p, 0, 3) })
	spawn(4, func(p *Proc) { n.AwaitMin(p, 0, 4) })
	spawn(5, func(p *Proc) { n.AwaitMin(p, 0, 5) })
	e.At(time.Second, func() { n.Entered(9) })
	e.Run()
	if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
		t.Fatalf("wake order = %v, want registration order [0 1 2 3 4 5]", order)
	}
}

// TestNotifierManyWaitersOneWake: the WaitAll shape — thousands of procs
// parked on the same final-state threshold, released by one entered
// state, every one exactly once.
func TestNotifierManyWaitersOneWake(t *testing.T) {
	e := NewEngine()
	n := NewNotifier[int](e)
	const waiters = 2000
	woke := 0
	for i := 0; i < waiters; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			n.AwaitMin(p, 0, 10)
			woke++
		})
	}
	e.At(time.Second, func() { n.Entered(10) })
	e.Run()
	if woke != waiters {
		t.Fatalf("woke %d of %d waiters", woke, waiters)
	}
}

// BenchmarkNotifierParkedWaiters is the O(waiters²) regression guard: 10⁴
// waiters park on a high threshold while states below it stream through.
// The threshold index makes each non-releasing Entered O(1) (heap-top
// check); a notifier that re-scanned every parked waiter per state entry
// would cost 10⁸ comparisons per iteration and time out the benchmark.
func BenchmarkNotifierParkedWaiters(b *testing.B) {
	const waiters = 10_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		n := NewNotifier[int](e)
		for w := 0; w < waiters; w++ {
			e.Spawn("w", func(p *Proc) { n.AwaitMin(p, 0, waiters+1) })
		}
		e.At(time.Second, func() {
			for s := 0; s < waiters; s++ {
				n.Entered(s) // below every threshold: must not scan the parked set
			}
			n.Entered(waiters + 1) // release them all at once
		})
		e.Run()
	}
}
