package sim

import (
	"fmt"
	"time"
)

// errStopped is the sentinel used to unwind a process goroutine when the
// engine shuts down. It must never escape the kernel.
type stoppedError struct{ proc string }

func (e stoppedError) Error() string { return "sim: process stopped: " + e.proc }

type wakeKind int

const (
	wakeFired       wakeKind = iota // the awaited condition happened
	wakeTimeout                     // a WaitTimeout deadline expired
	wakeKilled                      // the engine is shutting down
	wakeInterrupted                 // another process called Interrupt
)

// Interrupted is the panic value delivered to a process whose blocking
// operation was interrupted with Proc.Interrupt. Callers that want to
// handle interruption recover it (see OnInterrupt); unhandled, it unwinds
// the process like any panic and is reported as a kernel bug unless
// recovered.
type Interrupted struct {
	// Reason is the value passed to Interrupt.
	Reason any
}

func (i *Interrupted) Error() string { return fmt.Sprintf("sim: interrupted: %v", i.Reason) }

// OnInterrupt runs fn and, if it is unwound by an Interrupt, returns the
// Interrupted value instead of propagating the panic. Other panics (and
// kernel shutdown) propagate unchanged. Typical use:
//
//	if intr := sim.OnInterrupt(func() { longRunningWork(p) }); intr != nil {
//	    cleanup()
//	}
func OnInterrupt(fn func()) (intr *Interrupted) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if i, ok := r.(*Interrupted); ok {
			intr = i
			return
		}
		panic(r)
	}()
	fn()
	return nil
}

// Proc is the handle a process uses to interact with virtual time. A Proc
// is only valid inside the function passed to Engine.Spawn and must not be
// shared with other processes.
type Proc struct {
	eng    *Engine
	name   string
	id     int
	resume chan wakeKind

	// blocked and done are manipulated only while the kernel and the
	// process are correctly synchronized, so they need no lock.
	blocked bool
	done    bool

	// daemon marks service-loop processes that must not keep the
	// simulation alive (see Engine.SpawnDaemon).
	daemon bool

	// cur is the waiter the process is currently parked on, if any.
	cur *waiter
	// pendingInt holds the reason of an interrupt that arrived while the
	// process was running (or after its current wait had already been
	// won); it is delivered at the next blocking point.
	pendingInt    any
	hasPendingInt bool
}

// Interrupt requests that p's current (or, if it is running, next)
// blocking operation unwind with an *Interrupted panic carrying reason.
// It may be called from any process or kernel callback. Interrupting a
// finished process is a no-op. Delivery is asynchronous: it happens via
// the event queue at the current virtual time.
func (p *Proc) Interrupt(reason any) {
	if p.done {
		return
	}
	p.eng.At(0, func() {
		if p.done {
			return
		}
		if cw := p.cur; cw != nil && !cw.woken {
			// Blocked right now: unwind whatever wait it is in.
			cw.intReason = reason
			cw.wake(wakeInterrupted)
			return
		}
		// Running, or its wake at this timestamp already won: deliver at
		// the next blocking point.
		p.pendingInt = reason
		p.hasPendingInt = true
	})
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the name given to Spawn, for traces and diagnostics.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Spawn starts fn as a new process at the current virtual time. The
// process begins executing when the engine reaches the spawn event, not
// synchronously. Spawn may be called before Run or from any process or
// kernel callback. The returned Proc must only be used by other processes
// to call Interrupt or to inspect identity; all blocking methods remain
// exclusive to the spawned function.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAfter(0, name, fn)
}

// SpawnAfter starts fn as a new process after delay d of virtual time.
func (e *Engine) SpawnAfter(d time.Duration, name string, fn func(p *Proc)) *Proc {
	return e.spawn(d, name, false, fn)
}

// SpawnDaemon starts fn as a daemon process: a service loop (scheduler
// cycle, heartbeat monitor, node manager) that runs as long as the
// simulation has other work but does not keep it alive by itself — the
// analogue of a detached system daemon.
func (e *Engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(0, name, true, fn)
}

func (e *Engine) spawn(d time.Duration, name string, daemon bool, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on closed engine")
	}
	e.nspawned++
	p := &Proc{eng: e, name: name, id: e.nspawned, daemon: daemon, resume: make(chan wakeKind)}
	e.procs = append(e.procs, p)
	if !daemon {
		e.liveNormal++
	}
	go func() {
		defer func() {
			p.done = true
			if !p.daemon {
				e.liveNormal--
			}
			r := recover()
			if _, stopped := r.(stoppedError); stopped {
				r = nil
			}
			if _, interrupted := r.(*Interrupted); interrupted {
				// An unhandled interrupt terminates the process cleanly,
				// like a signal-killed task; defers have already run.
				r = nil
			}
			if r != nil {
				// A real panic in simulation code: surface it with the
				// process identity attached. This crashes the program,
				// which is the desired behaviour for a kernel-level bug.
				panic(fmt.Sprintf("sim: process %q panicked at %s: %v", p.name, p.eng.now, r))
			}
			// Hand control back to the kernel one final time.
			p.eng.yield <- struct{}{}
		}()
		if k := <-p.resume; k == wakeKilled {
			panic(stoppedError{p.name})
		}
		p.blocked = false
		fn(p)
	}()
	e.schedule(e.now+d, p.daemon, func() {
		if p.done {
			return
		}
		p.blocked = true // parked on initial resume
		p.resumeWith(wakeFired)
	})
	return p
}

// resumeWith transfers control to the process and blocks until it either
// yields (parks on a new waiter) or finishes. Must run in kernel context.
func (p *Proc) resumeWith(k wakeKind) {
	if !p.blocked {
		panic("sim: resuming a process that is not blocked")
	}
	p.blocked = false
	p.eng.curDaemon = p.daemon // schedules from process context inherit
	p.resume <- k
	<-p.eng.yield
}

// parkOn blocks the calling process on waiter w until something wakes it,
// returning the wake kind. Must run in process context.
func (p *Proc) parkOn(w *waiter) wakeKind {
	if p.hasPendingInt {
		reason := p.pendingInt
		p.hasPendingInt = false
		p.pendingInt = nil
		w.woken = true // nobody should wake this waiter later
		panic(&Interrupted{Reason: reason})
	}
	p.cur = w
	p.blocked = true
	p.eng.yield <- struct{}{}
	k := <-p.resume
	p.cur = nil
	switch k {
	case wakeKilled:
		panic(stoppedError{p.name})
	case wakeInterrupted:
		panic(&Interrupted{Reason: w.intReason})
	}
	return k
}

// waiter represents one parked wait of a process. A waiter may be the
// target of several potential wake-ups (event trigger, timeout,
// interrupt); only the first takes effect.
type waiter struct {
	p         *Proc
	woken     bool
	intReason any
}

// wake resumes the waiting process if this waiter has not been woken yet.
// Must run in kernel context (scheduled through the event queue).
func (w *waiter) wake(k wakeKind) {
	if w.woken || w.p.done {
		return
	}
	w.woken = true
	w.p.resumeWith(k)
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields, so other events at the same
// timestamp that were scheduled earlier run first).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	w := &waiter{p: p}
	p.eng.schedule(p.eng.now+d, p.daemon, func() { w.wake(wakeFired) })
	p.parkOn(w)
}

// Yield gives up control until all events scheduled at the current
// timestamp before this call have run.
func (p *Proc) Yield() { p.Sleep(0) }

// Wait blocks until ev is triggered. If ev is already triggered, Wait
// still yields once so ordering stays consistent.
func (p *Proc) Wait(ev *Event) {
	if ev.triggered {
		p.Yield()
		return
	}
	w := &waiter{p: p}
	ev.waiters = append(ev.waiters, w)
	p.parkOn(w)
}

// WaitTimeout blocks until ev is triggered or d elapses. It reports
// whether the event fired (true) as opposed to the timeout expiring.
func (p *Proc) WaitTimeout(ev *Event, d time.Duration) bool {
	if ev.triggered {
		p.Yield()
		return true
	}
	w := &waiter{p: p}
	ev.waiters = append(ev.waiters, w)
	p.eng.schedule(p.eng.now+d, p.daemon, func() { w.wake(wakeTimeout) })
	return p.parkOn(w) == wakeFired
}
