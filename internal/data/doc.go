// Package data is the Pilot-Data subsystem: first-class data units with
// staging, replication, and placement the Unit-Manager can co-schedule
// compute against. It mirrors the Pilot-Compute design of internal/core
// one layer down the storage hierarchy:
//
//   - A PilotDescription names a registered data backend ("lustre",
//     "hdfs", "mem", or anything added through RegisterBackend) and the
//     storage it binds to; Manager.AddPilot provisions a Pilot whose
//     Store holds replicas.
//   - A UnitDescription names a logical dataset (size, replication
//     target, pilot affinity, optional staging source); Manager.Submit
//     creates a Unit and drives it through the state machine
//     StateNew → StateStagingIn → StateReplicated → final, staging the
//     first replica from the source volume and the remaining replicas
//     store-to-store over saga.FileTransfer's pipelined copy.
//   - Placement is deterministic: affinity match first, then least
//     occupied store, ties broken by registration order; stores whose
//     capacity the unit would overflow are skipped.
//
// Units embed the same sim.Lifecycle as pilots and Compute-Units, so
// OnStateChange, Wait and WaitState compose with the rest of the stack.
// internal/core consumes this package for typed
// ComputeUnitDescription.Inputs/Outputs staging and for the
// data-affinity unit schedulers; applications use it through the public
// pilot package (DataManager, DataPilot, DataUnit).
package data
