package core

// PilotCallback observes a pilot entering a state. Callbacks run
// synchronously inside the state transition, in registration order, at
// the current virtual time — the simulation-side mirror of
// RADICAL-Pilot's register_callback.
type PilotCallback func(pl *Pilot, state PilotState)

// UnitCallback observes a Compute-Unit entering a state.
type UnitCallback func(u *Unit, state UnitState)

// Values of both types pass to OnStateChange, which pilots and units get
// from the sim.Lifecycle they embed; the data subsystem's Data-Units
// embed the same lifecycle (see internal/data).
