// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. It is the substrate on which every other subsystem in
// this repository (HPC batch schedulers, HDFS, YARN, Spark, the Pilot
// middleware) executes.
//
// # Model
//
// An Engine owns a virtual clock and an ordered event queue. Simulation
// logic is written as ordinary sequential Go code inside processes spawned
// with Engine.Spawn. A process runs on its own goroutine, but the kernel
// guarantees that at most one process goroutine executes at any instant:
// control is handed back and forth between the engine loop and the running
// process over unbuffered channels. Together with a strict (time, sequence)
// ordering of events this makes runs bit-reproducible for a fixed seed.
//
// Processes advance virtual time with Proc.Sleep, synchronize with Event,
// share capacity with Resource and SharedLink (a processor-sharing
// bandwidth model), and exchange values through Queue.
//
// # Lifecycles
//
// Lifecycle is the state model pilots, Compute-Units and Data-Units
// embed: state, timestamps, failure cause, callbacks and waiters.
// Advance, Fail and Reenter move it; its waiters park in a Notifier,
// indexed by threshold.
//
// # Shutdown
//
// Engine.Run returns when the event queue drains. Processes still blocked
// at that point (for example, daemon loops waiting for requests) are
// terminated by Engine.Close, which unblocks each one with an internal
// sentinel panic that the kernel recovers; user code only needs to release
// external resources in defers, as it would for normal termination.
package sim
