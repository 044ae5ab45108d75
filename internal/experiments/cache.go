package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpc"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/pilot"
)

// The result-cache comparison: a redundancy-heavy workload — several
// users submitting a shared catalog of derivation jobs plus a few
// private ones — run once on a plain Unit-Manager and once behind
// WithResultCache. The shared jobs are identical down to their UnitKey
// (same executable, arguments, input and output Data-Units), so the
// cached cell executes each of them exactly once: the first submitter
// leads, users arriving mid-flight coalesce onto that execution, late
// users hit the completed entry, and a full redundant resubmission at
// the end runs nothing at all. The uncached cell grinds through every
// copy.
const (
	cacheUsers      = 6
	cacheSharedJobs = 8 // identical across users — the cacheable catalog
	cacheUniqueJobs = 2 // private per user — always cache misses
	// cacheStagger spaces user arrivals so the shared catalog is hit at
	// every cache temperature: in-flight (coalesce) and completed (hit).
	cacheStagger = 30 * time.Second
	cacheJobWork = 120 // abstract compute-seconds per job

	cacheUnitCores = 2
	cacheInBytes   = 64 << 20
	cacheOutBytes  = 16 << 20
)

// CacheJobs returns the phase-1 job submissions across all users.
func CacheJobs() int { return cacheUsers * (cacheSharedJobs + cacheUniqueJobs) }

// cacheDistinctJobs is how many distinct computations phase 1 contains
// — the executions the cached cell is allowed.
func cacheDistinctJobs() int { return cacheSharedJobs + cacheUsers*cacheUniqueJobs }

// CacheRow is one cell of the comparison.
type CacheRow struct {
	// Label names the cell: "uncached" or "cached".
	Label string
	// Makespan covers first submission to the last phase-2 unit's final
	// state.
	Makespan time.Duration
	// Phase1Executions counts unit Bodies actually run during the
	// staggered multi-user phase (CacheJobs() submissions).
	Phase1Executions int
	// Phase2Executions counts Bodies run when the full shared catalog is
	// redundantly resubmitted after phase 1 completed — zero when every
	// resubmission is served from the cache.
	Phase2Executions int
	// Cache is the Unit-Manager's result-cache snapshot at the end.
	Cache pilot.CacheSnapshot
}

// cacheSpec is the comparison machine: two 8-core nodes, so the 2-core
// jobs run eight wide and redundant executions cost visible makespan.
func cacheSpec() cluster.MachineSpec {
	return cluster.MachineSpec{
		Name:  "cache",
		Nodes: 2,
		Node: cluster.NodeSpec{
			Cores: 8, MemoryMB: 32 * 1024, DiskBW: 400e6,
			DiskOpLatency: time.Millisecond, NICBW: 1e9,
		},
		FabricBW: 10e9,
		Lustre: storage.LustreSpec{
			AggregateBW: 1e9, MDSServers: 2,
			MDSServiceTime: 2 * time.Millisecond, ClientLatency: 3 * time.Millisecond,
		},
		CPUFactor:  1,
		ExternalBW: 500e6,
	}
}

// RunCacheComparison runs the redundant workload twice: fresh
// environment per cell, same machine, same seed, only WithResultCache
// varies.
func RunCacheComparison(seed int64) ([]*CacheRow, error) {
	var rows []*CacheRow
	for _, cached := range []bool{false, true} {
		row, err := runCacheCell(cached, seed)
		if err != nil {
			return nil, fmt.Errorf("cache comparison %s: %w", row.Label, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runCacheCell executes the workload on one Unit-Manager configuration.
func runCacheCell(cached bool, seed int64) (*CacheRow, error) {
	row := &CacheRow{Label: "uncached"}
	if cached {
		row.Label = "cached"
	}
	eng := sim.NewEngine()
	defer eng.Close()
	m := cluster.New(eng, cacheSpec())
	batch := hpc.NewBatch(m, hpc.Config{
		SchedCycle:      10 * time.Second,
		Prolog:          2 * time.Second,
		MinQueueWait:    time.Second,
		DefaultWallTime: 4 * time.Hour,
		Seed:            seed,
	})
	// The cell always runs with a flight recorder: the bind-invariant
	// check below audits its stream — in the cached cell it proves the
	// coalesced and hit submissions completed without ever binding.
	rec := pilot.NewRecorder(eng)
	tapMetrics(rec)
	session := pilot.NewSession(eng,
		pilot.WithProfile(schedProfile()), pilot.WithSeed(seed), pilot.WithRecorder(rec))
	res := &pilot.Resource{Name: "cache", URL: "slurm://cache", Machine: m, Batch: batch}
	if err := session.AddResource(res); err != nil {
		return nil, err
	}

	var runErr error
	eng.Spawn("driver", func(p *sim.Proc) {
		pm := pilot.NewPilotManager(session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "cache", Nodes: 2, Runtime: 3 * time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			runErr = err
			return
		}
		if !pl.WaitState(p, pilot.PilotActive) {
			runErr = fmt.Errorf("pilot %s ended %v", pl.ID, pl.State())
			return
		}
		dm := pilot.NewDataManager(session)
		dp, err := dm.AddPilot(pilot.DataPilotDescription{
			Backend: pilot.DataBackendMem, Label: "mem",
			CapacityBytes: 16 << 30, MemBytesPerSec: 8e9,
		})
		if err != nil {
			runErr = err
			return
		}
		if err := pl.AttachDataPilot(dp); err != nil {
			runErr = err
			return
		}
		opts := []pilot.UnitManagerOption{pilot.WithScheduler(pilot.SchedulerBackfill)}
		if cached {
			opts = append(opts, pilot.WithResultCache(1<<30))
		}
		um, err := pilot.NewUnitManager(session, opts...)
		if err != nil {
			runErr = err
			return
		}
		um.AddPilot(pl)

		// The shared catalog: every user derives the same outputs from
		// the same inputs. One Data-Unit object per logical name — the
		// data layer enforces name uniqueness among live units, and the
		// identical objects are exactly what makes the UnitKeys collide.
		sharedIn := make([]*pilot.DataUnit, cacheSharedJobs)
		sharedOut := make([]*pilot.DataUnit, cacheSharedJobs)
		for j := 0; j < cacheSharedJobs; j++ {
			if sharedIn[j], err = dm.Submit(p, pilot.DataUnitDescription{
				Name: fmt.Sprintf("/cache/in-%d", j), SizeBytes: cacheInBytes, Affinity: "mem",
			}); err != nil {
				runErr = err
				return
			}
			if sharedOut[j], err = dm.Declare(pilot.DataUnitDescription{
				Name: fmt.Sprintf("/cache/out-%d", j), SizeBytes: cacheOutBytes,
			}); err != nil {
				runErr = err
				return
			}
		}
		// sharedDesc builds user u's copy of shared job j, charging its
		// execution (if any) to the given phase counter. Everything the
		// UnitKey sees is identical across users and phases.
		sharedDesc := func(j int, execs *int) pilot.ComputeUnitDescription {
			return pilot.ComputeUnitDescription{
				Name:       fmt.Sprintf("shared-%d", j),
				Executable: "/bin/derive",
				Arguments:  []string{fmt.Sprintf("--job=%d", j)},
				Cores:      cacheUnitCores,
				Inputs:     []pilot.DataRef{{Unit: sharedIn[j]}},
				Outputs:    []pilot.DataRef{{Unit: sharedOut[j]}},
				Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
					*execs++
					ctx.Node.Compute(bp, cacheJobWork)
				},
			}
		}

		start := p.Now()
		done := make([]*sim.Event, cacheUsers)
		var userErr error
		for u := 0; u < cacheUsers; u++ {
			u := u
			done[u] = sim.NewEvent(eng)
			eng.Spawn(fmt.Sprintf("user-%d", u), func(up *sim.Proc) {
				defer done[u].Trigger()
				up.Sleep(time.Duration(u) * cacheStagger)
				descs := make([]pilot.ComputeUnitDescription, 0, cacheSharedJobs+cacheUniqueJobs)
				for j := 0; j < cacheSharedJobs; j++ {
					descs = append(descs, sharedDesc(j, &row.Phase1Executions))
				}
				for j := 0; j < cacheUniqueJobs; j++ {
					in, err := dm.Submit(up, pilot.DataUnitDescription{
						Name:      fmt.Sprintf("/cache/u%d/in-%d", u, j),
						SizeBytes: cacheInBytes, Affinity: "mem",
					})
					if err != nil {
						userErr = err
						return
					}
					out, err := dm.Declare(pilot.DataUnitDescription{
						Name: fmt.Sprintf("/cache/u%d/out-%d", u, j), SizeBytes: cacheOutBytes,
					})
					if err != nil {
						userErr = err
						return
					}
					descs = append(descs, pilot.ComputeUnitDescription{
						Name:       fmt.Sprintf("unique-%d-%d", u, j),
						Executable: "/bin/private",
						Arguments:  []string{fmt.Sprintf("--user=%d", u), fmt.Sprintf("--job=%d", j)},
						Cores:      cacheUnitCores,
						Inputs:     []pilot.DataRef{{Unit: in}},
						Outputs:    []pilot.DataRef{{Unit: out}},
						Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
							row.Phase1Executions++
							ctx.Node.Compute(bp, cacheJobWork)
						},
					})
				}
				units, err := um.Submit(up, descs)
				if err != nil {
					userErr = err
					return
				}
				um.WaitAll(up, units)
				for _, cu := range units {
					if cu.State() != pilot.UnitDone {
						userErr = fmt.Errorf("user %d unit %s finished %v: %v", u, cu.ID, cu.State(), cu.Err)
						return
					}
				}
			})
		}
		for _, ev := range done {
			p.Wait(ev)
		}
		if userErr != nil {
			runErr = userErr
			return
		}

		// Phase 2: the entire shared catalog again, after everything
		// above completed. Pure redundancy — with a result cache every
		// submission is a hit and nothing executes.
		descs := make([]pilot.ComputeUnitDescription, cacheSharedJobs)
		for j := range descs {
			descs[j] = sharedDesc(j, &row.Phase2Executions)
		}
		units, err := um.Submit(p, descs)
		if err != nil {
			runErr = err
			return
		}
		um.WaitAll(p, units)
		for _, cu := range units {
			if cu.State() != pilot.UnitDone {
				runErr = fmt.Errorf("phase-2 unit %s finished %v: %v", cu.ID, cu.State(), cu.Err)
				return
			}
		}

		row.Makespan = p.Now() - start
		row.Cache = um.ClusterView().Cache
		pl.Cancel()
	})
	eng.Run()
	if runErr != nil {
		return nil, runErr
	}
	// Recorder invariants: every executed DONE unit bound exactly once;
	// every hit or coalesced submission completed with zero binds.
	events := rec.Events()
	if err := pilot.VerifyBinds(events); err != nil {
		return nil, fmt.Errorf("recorder bind invariants (%s): %w", row.Label, err)
	}
	if got, want := pilot.DoneUnits(events), CacheJobs()+cacheSharedJobs; got != want {
		return nil, fmt.Errorf("recorder saw %d DONE units, want %d", got, want)
	}
	tapCommit("cache/"+row.Label, rec)
	return row, nil
}

// CheckCacheComparison asserts the properties the comparison exists to
// show; cmd/repro and the test suite share it so the claim "a result
// cache collapses redundant submissions" is pinned in both places.
func CheckCacheComparison(rows []*CacheRow) error {
	if len(rows) != 2 {
		return fmt.Errorf("cache comparison: %d rows, want 2", len(rows))
	}
	un, ca := rows[0], rows[1]
	if un.Label != "uncached" || ca.Label != "cached" {
		return fmt.Errorf("cache comparison rows out of order: %s, %s", un.Label, ca.Label)
	}
	if un.Cache.Enabled {
		return fmt.Errorf("cache: the uncached cell reports an enabled cache")
	}
	if un.Phase1Executions != CacheJobs() || un.Phase2Executions != cacheSharedJobs {
		return fmt.Errorf("cache: uncached executed %d+%d bodies, want every submission (%d+%d)",
			un.Phase1Executions, un.Phase2Executions, CacheJobs(), cacheSharedJobs)
	}
	if ca.Phase1Executions != cacheDistinctJobs() {
		return fmt.Errorf("cache: cached executed %d bodies in phase 1, want one per distinct job (%d)",
			ca.Phase1Executions, cacheDistinctJobs())
	}
	if ca.Phase2Executions != 0 {
		return fmt.Errorf("cache: the fully redundant resubmission executed %d bodies, want 0",
			ca.Phase2Executions)
	}
	if ca.Cache.Coalesced == 0 {
		return fmt.Errorf("cache: no submissions coalesced onto an in-flight execution")
	}
	if ca.Cache.Hits == 0 {
		return fmt.Errorf("cache: no submissions hit a completed entry")
	}
	if ca.Makespan >= un.Makespan {
		return fmt.Errorf("cache: cached makespan %s did not beat uncached %s",
			metrics.Seconds(ca.Makespan), metrics.Seconds(un.Makespan))
	}
	return nil
}

// WriteCacheComparison renders the comparison table plus the cached
// cell's effectiveness counters.
func WriteCacheComparison(w io.Writer, rows []*CacheRow) {
	fmt.Fprintf(w, "Result-cache comparison: %d users x (%d shared + %d private) jobs, then the shared catalog resubmitted\n",
		cacheUsers, cacheSharedJobs, cacheUniqueJobs)
	fmt.Fprintf(w, "(%d submissions over %d distinct computations; one Mode I pilot, backfill scheduler)\n",
		CacheJobs()+cacheSharedJobs, cacheDistinctJobs())
	t := metrics.NewTable("cell", "makespan (s)", "phase-1 execs", "phase-2 execs")
	for _, r := range rows {
		t.AddRow(r.Label, metrics.Seconds(r.Makespan),
			fmt.Sprintf("%d", r.Phase1Executions), fmt.Sprintf("%d", r.Phase2Executions))
	}
	t.Write(w)
	for _, r := range rows {
		if !r.Cache.Enabled {
			continue
		}
		c := r.Cache
		fmt.Fprintf(w, "\n%s cell cache counters: hits=%d misses=%d coalesced=%d completions=%d aborts=%d evictions=%d entries=%d cached-bytes=%d\n",
			r.Label, c.Hits, c.Misses, c.Coalesced, c.Completions, c.Aborts, c.Evictions, c.Entries, c.UsedBytes)
	}
}
