package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// lstate is a test lifecycle: five ordered non-final states, then three
// final ones.
type lstate int

const (
	lNew lstate = iota
	lA
	lB
	lC
	lD
	lDone
	lCanceled
	lFailed
)

func (s lstate) Final() bool { return s >= lDone }

type lrecord struct {
	st     lstate
	detail string
}

type testOwner struct {
	Lifecycle[*testOwner, lstate]
	records []lrecord
	seen    []lstate
	calls   int
}

func recordTestState(o *testOwner, st lstate, detail string) {
	o.records = append(o.records, lrecord{st, detail})
}

func newTestOwner(e *Engine) *testOwner {
	o := &testOwner{}
	o.Lifecycle = NewLifecycle(e, o, lDone, recordTestState)
	return o
}

// TestLifecycleTransitions drives a lifecycle through a sequence of
// mutations, one per virtual second, and checks the state, the recorder
// hook, the callbacks, the timestamps and Err.
func TestLifecycleTransitions(t *testing.T) {
	boom := errors.New("boom")
	type op func(l *Lifecycle[*testOwner, lstate])
	adv := func(st lstate) op { return func(l *Lifecycle[*testOwner, lstate]) { Advance(l, st) } }
	fail := func(err error) op { return func(l *Lifecycle[*testOwner, lstate]) { Fail(l, lFailed, err) } }
	reenter := func(st lstate) op { return func(l *Lifecycle[*testOwner, lstate]) { Reenter(l, st) } }
	for _, tc := range []struct {
		name    string
		ops     []op
		want    lstate
		records []lrecord
		// stamps maps each stamped state to the second it was stamped at.
		stamps map[lstate]int
		err    error
	}{
		{
			name:    "skip forward",
			ops:     []op{adv(lA), adv(lC)},
			want:    lC,
			records: []lrecord{{lA, ""}, {lC, ""}},
			stamps:  map[lstate]int{lNew: 0, lA: 1, lC: 2},
		},
		{
			name:    "backwards and sideways are no-ops",
			ops:     []op{adv(lB), adv(lA), adv(lB)},
			want:    lB,
			records: []lrecord{{lB, ""}},
			stamps:  map[lstate]int{lNew: 0, lB: 1},
		},
		{
			name:    "nothing moves a final state",
			ops:     []op{adv(lDone), adv(lFailed), fail(boom), reenter(lA)},
			want:    lDone,
			records: []lrecord{{lDone, ""}},
			stamps:  map[lstate]int{lNew: 0, lDone: 1},
		},
		{
			name:    "fail sets Err and hands its text to the hook",
			ops:     []op{adv(lA), fail(boom)},
			want:    lFailed,
			records: []lrecord{{lA, ""}, {lFailed, "boom"}},
			stamps:  map[lstate]int{lNew: 0, lA: 1, lFailed: 2},
			err:     boom,
		},
		{
			name:    "reenter announces without restamping",
			ops:     []op{adv(lA), adv(lB), reenter(lA)},
			want:    lA,
			records: []lrecord{{lA, ""}, {lB, ""}, {lA, ""}},
			stamps:  map[lstate]int{lNew: 0, lA: 1, lB: 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			o := newTestOwner(e)
			o.OnStateChange(func(o *testOwner, st lstate) { o.seen = append(o.seen, st) })
			for i, f := range tc.ops {
				e.At(time.Duration(i+1)*time.Second, func() { f(&o.Lifecycle) })
			}
			e.Run()
			if o.State() != tc.want {
				t.Errorf("state = %v, want %v", o.State(), tc.want)
			}
			if fmt.Sprint(o.records) != fmt.Sprint(tc.records) {
				t.Errorf("records = %v, want %v", o.records, tc.records)
			}
			var wantSeen []lstate
			for _, r := range tc.records {
				wantSeen = append(wantSeen, r.st)
			}
			if fmt.Sprint(o.seen) != fmt.Sprint(wantSeen) {
				t.Errorf("callbacks saw %v, want %v", o.seen, wantSeen)
			}
			if len(o.Timestamps) != len(tc.stamps) {
				t.Errorf("timestamps = %v, want %v (in seconds)", o.Timestamps, tc.stamps)
			}
			for st, sec := range tc.stamps {
				if at, ok := o.Timestamps[st]; !ok || at != time.Duration(sec)*time.Second {
					t.Errorf("timestamp of %v = %v (stamped %v), want %ds", st, at, ok, sec)
				}
			}
			if o.Err != tc.err {
				t.Errorf("Err = %v, want %v", o.Err, tc.err)
			}
		})
	}
}

// TestLifecycleLateSubscriber: a subscriber registered after the zero
// state is called once at once with the current state, then for every
// later state; one registered in the zero state is not called early.
func TestLifecycleLateSubscriber(t *testing.T) {
	o := newTestOwner(NewEngine())
	var early, late []lstate
	o.OnStateChange(func(_ *testOwner, st lstate) { early = append(early, st) })
	Advance(&o.Lifecycle, lB)
	o.OnStateChange(func(_ *testOwner, st lstate) { late = append(late, st) })
	if fmt.Sprint(late) != "[2]" {
		t.Fatalf("late subscriber saw %v at registration, want [2]", late)
	}
	Advance(&o.Lifecycle, lDone)
	if fmt.Sprint(early) != "[2 5]" || fmt.Sprint(late) != "[2 5]" {
		t.Fatalf("subscribers saw %v and %v, want [2 5] each", early, late)
	}
}

// TestLifecycleWaitSkippedState: a waiter parked on a state the failure
// path skips is woken by the final state and told the state never
// happened; Wait returns the final state.
func TestLifecycleWaitSkippedState(t *testing.T) {
	e := NewEngine()
	o := newTestOwner(e)
	got := map[string]any{}
	e.Spawn("on-A", func(p *Proc) { got["A"] = o.WaitState(p, lA) })
	e.Spawn("on-C", func(p *Proc) {
		got["C"] = o.WaitState(p, lC)
		got["C at"] = p.Now()
	})
	e.Spawn("final", func(p *Proc) { got["final"] = o.Wait(p) })
	e.At(time.Second, func() { Advance(&o.Lifecycle, lA) })
	e.At(2*time.Second, func() { Fail(&o.Lifecycle, lFailed, errors.New("boom")) })
	e.Run()
	want := map[string]any{"A": true, "C": false, "C at": 2 * time.Second, "final": lFailed}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("waiters got %v, want %v", got, want)
	}
}

// TestLifecycleReentrantAdvance: a callback advancing the state again
// (the pilot Resizing→Active re-announce shape) must complete the nested
// wake without corrupting the in-flight one — every state's waiters
// release, in registration order. w4 registers first, so the heap's pop
// order [w2 w3 w4] differs from the registration order checked below.
func TestLifecycleReentrantAdvance(t *testing.T) {
	e := NewEngine()
	o := newTestOwner(e)
	var order []string
	e.Spawn("w4", func(p *Proc) {
		o.WaitState(p, lD)
		order = append(order, "w4")
	})
	e.Spawn("w2", func(p *Proc) {
		o.WaitState(p, lB)
		order = append(order, "w2")
	})
	e.Spawn("w3", func(p *Proc) {
		o.WaitState(p, lC)
		order = append(order, "w3")
	})
	entered := []int{}
	o.OnStateChange(func(o *testOwner, s lstate) {
		entered = append(entered, int(s))
		if s == lB {
			Advance(&o.Lifecycle, lC) // re-entrant: a callback advancing the state again
		}
		if s == lC {
			Advance(&o.Lifecycle, lD) // and once more, two levels deep
		}
	})
	e.At(time.Second, func() { Advance(&o.Lifecycle, lB) })
	e.Run()
	if fmt.Sprint(entered) != "[2 3 4]" {
		t.Fatalf("subscriber saw %v, want [2 3 4]", entered)
	}
	if fmt.Sprint(order) != "[w4 w2 w3]" {
		t.Fatalf("wake order = %v, want registration order [w4 w2 w3]", order)
	}
}

// TestLifecycleReenterAllocatesNothing: the Resizing→Active re-announce
// runs on every resize; with a subscriber and no waiter it must not
// allocate.
func TestLifecycleReenterAllocatesNothing(t *testing.T) {
	o := newTestOwner(NewEngine())
	Advance(&o.Lifecycle, lB)
	o.OnStateChange(func(o *testOwner, _ lstate) { o.calls++ })
	allocs := testing.AllocsPerRun(100, func() {
		o.records = o.records[:0]
		Reenter(&o.Lifecycle, lA)
	})
	if allocs != 0 {
		t.Fatalf("Reenter allocated %v times per call, want 0", allocs)
	}
	if o.calls != 1+101 {
		t.Fatalf("subscriber called %d times, want %d", o.calls, 1+101)
	}
}
