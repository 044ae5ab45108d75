package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/pilot"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlBag          = "bag"
	wlBagTelemetry = "bag-telemetry"
	wlDataflowYARN = "dataflow-yarn"
)

var workloadNames = []string{wlBag, wlBagTelemetry, wlDataflowYARN}

// size fixes how much work one repetition of a workload carries. The
// seed decides everything else.
type size struct {
	// BagUnits is the number of 1-core units in bag and bag-telemetry.
	BagUnits int
	// Graphs is the number of UnitGraphs in dataflow-yarn.
	Graphs int
}

// fullSize is what the benchmark measures; the tests run a reduced one.
var fullSize = size{BagUnits: 50000, Graphs: 100}

const (
	bagPilots  = 16
	flowPilots = 16
	nodeCores  = 8

	// Each dataflow graph: flowMaps maps over pre-staged partitions,
	// flowReduces reduces reading flowReduceFanIn map outputs each, and
	// one merge reading every reduce output.
	flowMaps        = 12
	flowReduces     = 24
	flowReduceFanIn = 3
	flowUnitCores   = 2
	// flowArrival spaces graph arrivals in virtual time, so graphs run
	// beside each other at different stages and most units wait in
	// UMGR_PENDING_INPUT rather than in the bind loop.
	flowArrival = 10 * time.Second

	// minScrapes is the fewest /metrics scrapes a run makes; the scrape
	// interval is derived from a makespan lower bound, so the count is
	// reached at every seed and repeats exactly at one seed.
	minScrapes = 256
)

// inputs is one workload's generated description: everything a
// repetition needs, derived from the seed alone.
type inputs struct {
	workload string
	seed     int64
	// bagRuntimes holds one virtual runtime per bag unit.
	bagRuntimes []time.Duration
	// graphs are the dataflow graphs in arrival order.
	graphs []graphSpec
	// scrapeEvery is the virtual interval between /metrics scrapes.
	scrapeEvery time.Duration
}

type graphSpec struct {
	maps    []mapSpec
	reduces []reduceSpec
	merge   float64 // abstract compute-seconds
}

type mapSpec struct {
	partBytes, outBytes int64
	work                float64
}

type reduceSpec struct {
	inputs   []int // indices into the graph's maps
	outBytes int64
	work     float64
}

// generate builds the workload's inputs from the seed.
func generate(workload string, seed int64, sz size) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{workload: workload, seed: seed}
	var coreSeconds float64
	var cores int
	switch workload {
	case wlBag, wlBagTelemetry:
		in.bagRuntimes = make([]time.Duration, sz.BagUnits)
		for i := range in.bagRuntimes {
			// A spread of short runtimes, so waves do not complete in
			// lockstep and the backfill binder keeps re-offering a
			// shrinking queue.
			d := 4*time.Second + time.Duration(rng.Intn(7))*500*time.Millisecond
			in.bagRuntimes[i] = d
			coreSeconds += d.Seconds()
		}
		cores = bagPilots * 2 * nodeCores
	case wlDataflowYARN:
		for g := 0; g < sz.Graphs; g++ {
			var gs graphSpec
			for m := 0; m < flowMaps; m++ {
				ms := mapSpec{
					partBytes: int64(64+rng.Intn(65)) << 20,
					outBytes:  int64(8+rng.Intn(9)) << 20,
					work:      float64(20 + rng.Intn(21)),
				}
				gs.maps = append(gs.maps, ms)
				coreSeconds += ms.work * flowUnitCores
			}
			for r := 0; r < flowReduces; r++ {
				rs := reduceSpec{
					inputs:   rng.Perm(flowMaps)[:flowReduceFanIn],
					outBytes: int64(2+rng.Intn(3)) << 20,
					work:     float64(10 + rng.Intn(11)),
				}
				gs.reduces = append(gs.reduces, rs)
				coreSeconds += rs.work * flowUnitCores
			}
			gs.merge = float64(3 + rng.Intn(5))
			coreSeconds += gs.merge * flowUnitCores
			in.graphs = append(in.graphs, gs)
		}
		cores = flowPilots * 2 * nodeCores
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	// No schedule finishes before the work divided by the cores.
	in.scrapeEvery = time.Duration(coreSeconds / float64(cores) / minScrapes * float64(time.Second))
	return in, nil
}

// units returns how many Compute-Units one repetition submits.
func (in *inputs) units() int {
	if in.graphs == nil {
		return len(in.bagRuntimes)
	}
	return len(in.graphs)*(flowMaps+flowReduces+1) + in.resubmitted()
}

// resubmitted is the size of dataflow-yarn's final phase: every map of
// every second graph, resubmitted with identical UnitKeys.
func (in *inputs) resubmitted() int { return (len(in.graphs) + 1) / 2 * flowMaps }

// machineSpec is the simulated machine: two 8-core nodes per pilot.
func machineSpec(pilots int) cluster.MachineSpec {
	return cluster.MachineSpec{
		Name:  "bench",
		Nodes: 2 * pilots,
		Node: cluster.NodeSpec{
			Cores: nodeCores, MemoryMB: 32 * 1024, DiskBW: 400e6,
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

// profile is the default agent bootstrap profile without jitter, so
// the virtual timeline depends on the seed alone.
func profile() pilot.BootstrapProfile {
	prof := pilot.DefaultProfile()
	prof.AgentSetup = 2 * time.Second
	prof.AgentVenvOps = 50
	prof.AgentComponents = time.Second
	prof.UnitWrapperOps = 20
	prof.UnitWrapperSetup = 2 * time.Second
	prof.Jitter = 0
	return prof
}

// rep is what one repetition measured.
type rep struct {
	// setup is engine creation → first submission; run is first
	// submission → last final state; engineRun is all of Engine.Run.
	setup, run, engineRun time.Duration
	virtualEnd            time.Duration // virtual clock when the engine quiesced

	submitted, done int
	// makespan is first submission → last final state; turnaround
	// holds submission → DONE per DONE unit (all virtual).
	makespan   time.Duration
	turnaround []time.Duration

	allocBytes, allocs uint64
	gcCycles           uint32
	gcPause            time.Duration
	// wall is the whole repetition: set-up, run and teardown.
	wall time.Duration

	scrapes      []time.Duration
	scrapeFailed int
	scrapeBytes  int64
	series       int

	layer layerCounts
}

// layerCounts are the per-layer readings of one repetition, taken at
// the calls the benchmark makes and from public accessors.
type layerCounts struct {
	procsPeak          int
	fabricBytes        float64
	nicBusyFrac        float64
	bindPasses, offers int64
	submitWall         time.Duration
	umWait, agentWait  []time.Duration
	held, stageIn      []time.Duration
	prestageWall       time.Duration
	admitWall          time.Duration
	cacheLookups       uint64
	cacheServed        uint64 // hits plus coalesced
	execs              int
	resubmitExecs      int
	eventsEmitted      int
	eventsRetained     int
	bridgeWall         time.Duration
	bridgeCalls        int
}

// repRun is one repetition in flight: a fresh engine, session and
// pilots, driven by one simulation process.
type repRun struct {
	in  *inputs
	tr  *tracer
	r   *rep
	eng *sim.Engine
	m   *cluster.Machine
	um  *pilot.UnitManager
	scr *scraper

	units []*pilot.Unit
	// audit is the part of the recorder stream VerifyBinds and
	// DoneUnits read (binds, cache decisions, DONE entries), taken from
	// the live hook so the audit does not copy the whole stream.
	audit    []pilot.TraceEvent
	declared []*pilot.DataUnit // dataflow outputs, each must end REPLICATED
	// poolDone is the DONE count from the pilots' own accounting plus
	// the result cache's completions, read when the run phase ends.
	poolDone int

	setupStart, runStart time.Time
	startV               time.Duration
	mem0                 runtime.MemStats
	stopped              bool
	setupOnly            bool
	repSpan, setupSpan   int
	runSpan              int
}

// runRep runs one repetition of the workload. The returned error is a
// correctness violation; units and scrapes that fail are counted in
// the rep instead.
func runRep(in *inputs, tr *tracer) (*rep, error) { return runRepMode(in, tr, false) }

// runSetup runs a repetition's set-up only, up to where the first unit
// would be submitted, and returns its wall time.
func runSetup(in *inputs) (time.Duration, error) {
	r, err := runRepMode(in, nil, true)
	if err != nil {
		return 0, err
	}
	return r.setup, nil
}

func runRepMode(in *inputs, tr *tracer, setupOnly bool) (*rep, error) {
	x := &repRun{in: in, tr: tr, r: &rep{}, setupOnly: setupOnly}
	dataflow := in.workload == wlDataflowYARN
	pilots, mode, sched := bagPilots, pilot.ModeHPC, pilot.SchedulerBackfill
	var umOpts []pilot.UnitManagerOption
	if dataflow {
		pilots, mode, sched = flowPilots, pilot.ModeYARN, pilot.SchedulerCoLocate
		umOpts = append(umOpts, pilot.WithResultCache(1<<40))
	}
	umOpts = append(umOpts, pilot.WithScheduler(sched))
	var bagDescs []pilot.ComputeUnitDescription
	if !dataflow && !setupOnly {
		bagDescs = x.bagDescs()
	}

	x.repSpan = tr.begin("rep", 0)
	x.setupStart = time.Now()
	x.setupSpan = tr.begin("setup", x.repSpan)
	x.eng = sim.NewEngine()
	defer x.eng.Close()
	x.m = cluster.New(x.eng, machineSpec(pilots))
	batch := hpc.NewBatch(x.m, hpc.Config{
		SchedCycle:      10 * time.Second,
		Prolog:          2 * time.Second,
		MinQueueWait:    time.Second,
		DefaultWallTime: 8 * time.Hour,
		Seed:            in.seed,
	})
	opts := []pilot.Option{pilot.WithProfile(profile()), pilot.WithSeed(in.seed)}
	// The endpoint is up on every workload; only bag-telemetry feeds
	// its registry, so elsewhere a scrape costs the empty exposition.
	reg := pilot.NewMetricsRegistry()
	var rec *pilot.Recorder
	if in.workload == wlBagTelemetry {
		rec = pilot.NewRecorder(x.eng)
		x.hookBridge(rec, pilot.NewMetricsBridge(reg))
		opts = append(opts, pilot.WithRecorder(rec))
	}
	srv, err := pilot.ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	defer srv.Close()
	x.scr = newScraper(srv.Addr(), tr)
	defer x.scr.close()
	session := pilot.NewSession(x.eng, opts...)
	res := &pilot.Resource{Name: "bench", URL: "slurm://bench", Machine: x.m, Batch: batch}
	if err := session.AddResource(res); err != nil {
		return nil, err
	}

	var runErr error
	x.eng.Spawn("driver", func(p *sim.Proc) {
		x.um, runErr = pilot.NewUnitManager(session, umOpts...)
		if runErr != nil {
			return
		}
		pm := pilot.NewPilotManager(session)
		var pls []*pilot.Pilot
		for i := 0; i < pilots; i++ {
			pl, err := pm.Submit(p, pilot.PilotDescription{
				Resource: "bench", Nodes: 2, Runtime: 8 * time.Hour, Mode: mode,
			})
			if err != nil {
				runErr = err
				return
			}
			pls = append(pls, pl)
		}
		defer func() {
			for _, pl := range pls {
				pl.Cancel()
			}
		}()
		for _, pl := range pls {
			if !pl.WaitState(p, pilot.PilotActive) {
				runErr = fmt.Errorf("pilot %s ended %v", pl.ID, pl.State())
				return
			}
			if err := x.um.AddPilot(pl); err != nil {
				runErr = err
				return
			}
		}
		if dataflow {
			runErr = x.runDataflow(p, session, pls)
		} else {
			runErr = x.runBag(p, bagDescs)
		}
	})
	x.runSpan = tr.begin("engine.run", x.repSpan)
	x.scr.parent = x.runSpan
	runStart := time.Now()
	x.eng.Run()
	x.r.engineRun = time.Since(runStart)
	tr.end(x.runSpan)
	x.r.virtualEnd = x.eng.Now()
	x.r.wall = time.Since(x.setupStart)
	tr.end(x.repSpan)
	if runErr != nil || setupOnly {
		return x.r, runErr
	}
	return x.r, x.collect(rec, reg)
}

// hookBridge feeds the metrics bridge from the recorder. It also counts
// the events emitted, keeps the ones the bind audit reads, and in a
// traced run times each Bridge.Apply.
func (x *repRun) hookBridge(rec *pilot.Recorder, bridge *pilot.MetricsBridge) {
	l := &x.r.layer
	rec.OnRecord(func(ev pilot.TraceEvent) {
		l.eventsEmitted++
		switch {
		case ev.Kind == pilot.EventBind, ev.Kind == pilot.EventCache,
			ev.Kind == pilot.EventUnitState && ev.State == "DONE":
			x.audit = append(x.audit, ev)
		}
		if x.tr == nil {
			bridge.Apply(ev)
			return
		}
		t0 := time.Now()
		bridge.Apply(ev)
		d := time.Since(t0)
		l.bridgeWall += d
		l.bridgeCalls++
		if ev.Seq%bridgeSpanEvery == 0 {
			x.tr.add("bridge.apply", x.runSpan, t0, d)
		}
	})
}

// beginRun marks the first submission: set-up ends, the run phase and
// the scrape clock start. It reports false when the repetition is set-up
// only and must stop here.
func (x *repRun) beginRun(p *sim.Proc) bool {
	x.r.setup = time.Since(x.setupStart)
	x.tr.end(x.setupSpan)
	if x.setupOnly {
		return false
	}
	x.startV = p.Now()
	var tick func()
	tick = func() {
		if x.stopped {
			return
		}
		x.scr.scrape()
		x.eng.AtDaemon(x.in.scrapeEvery, tick)
	}
	x.eng.AtDaemon(x.in.scrapeEvery, tick)
	if x.tr != nil {
		var sample func()
		sample = func() {
			if x.stopped {
				return
			}
			if n := x.eng.Processes(); n > x.r.layer.procsPeak {
				x.r.layer.procsPeak = n
			}
			x.eng.AtDaemon(x.in.scrapeEvery, sample)
		}
		sample()
	}
	runtime.ReadMemStats(&x.mem0)
	x.runStart = time.Now()
	return true
}

// endRun marks the last final state.
func (x *repRun) endRun(p *sim.Proc) {
	x.r.run = time.Since(x.runStart)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	x.r.allocBytes = mem.TotalAlloc - x.mem0.TotalAlloc
	x.r.allocs = mem.Mallocs - x.mem0.Mallocs
	x.r.gcCycles = mem.NumGC - x.mem0.NumGC
	x.r.gcPause = time.Duration(mem.PauseTotalNs - x.mem0.PauseTotalNs)
	x.r.makespan = p.Now() - x.startV
	x.stopped = true
	x.r.layer.bindPasses, x.r.layer.offers = x.um.BindPassStats()
	view := x.um.ClusterView()
	for _, pv := range view.Pilots {
		x.poolDone += int(pv.DoneUnits)
	}
	c := view.Cache
	x.poolDone += int(c.Hits + c.Coalesced)
	x.r.layer.cacheLookups = c.Hits + c.Misses + c.Coalesced
	x.r.layer.cacheServed = c.Hits + c.Coalesced
}

// submit is UnitManager.Submit, timed as an admission call.
func (x *repRun) submit(p *sim.Proc, descs []pilot.ComputeUnitDescription) ([]*pilot.Unit, error) {
	id := x.tr.begin("um.submit", x.runSpan)
	t0 := time.Now()
	units, err := x.um.Submit(p, descs)
	x.r.layer.submitWall += time.Since(t0)
	x.tr.end(id)
	return units, err
}

// bagDescs builds the bag descriptions: one 1-core unit per runtime.
func (x *repRun) bagDescs() []pilot.ComputeUnitDescription {
	descs := make([]pilot.ComputeUnitDescription, len(x.in.bagRuntimes))
	for i, d := range x.in.bagRuntimes {
		d := d
		descs[i] = pilot.ComputeUnitDescription{
			Cores: 1,
			Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
				x.r.layer.execs++
				bp.Sleep(d)
			},
		}
	}
	return descs
}

// runBag submits the whole bag at once and waits for it.
func (x *repRun) runBag(p *sim.Proc, descs []pilot.ComputeUnitDescription) error {
	if !x.beginRun(p) {
		return nil
	}
	units, err := x.submit(p, descs)
	if err != nil {
		return err
	}
	x.units = units
	x.um.WaitAll(p, units)
	x.endRun(p)
	return nil
}

// runDataflow stages the partitions onto per-pilot HDFS data pilots,
// builds every graph, then admits the graphs at their arrival times and
// finally resubmits part of the map catalog, which the result cache
// must serve without running a body.
func (x *repRun) runDataflow(p *sim.Proc, session *pilot.Session, pls []*pilot.Pilot) error {
	dm := pilot.NewDataManager(session)
	labels := make([]string, len(pls))
	for i, pl := range pls {
		labels[i] = fmt.Sprintf("hdfs-%d", i)
		dp, err := dm.AddPilot(pilot.DataPilotDescription{
			Backend: pilot.DataBackendHDFS, Label: labels[i], HDFS: pl.HDFS(),
		})
		if err != nil {
			return err
		}
		if err := pl.AttachDataPilot(dp); err != nil {
			return err
		}
	}
	declare := func(name string, size int64) (pilot.DataRef, error) {
		du, err := dm.Declare(pilot.DataUnitDescription{Name: name, SizeBytes: size})
		if err != nil {
			return pilot.DataRef{}, err
		}
		x.declared = append(x.declared, du)
		return pilot.DataRef{Unit: du}, nil
	}
	compute := func(work float64, execs *int) pilot.UnitBody {
		return func(bp *sim.Proc, ctx *pilot.UnitContext) {
			*execs++
			ctx.Node.Compute(bp, work)
		}
	}
	l := &x.r.layer
	graphs := make([]*pilot.UnitGraph, len(x.in.graphs))
	var resubmit []pilot.ComputeUnitDescription
	for gi, gs := range x.in.graphs {
		g := pilot.NewUnitGraph()
		mapOuts := make([]pilot.DataRef, len(gs.maps))
		for mi, ms := range gs.maps {
			id := x.tr.begin("dm.submit", x.setupSpan)
			t0 := time.Now()
			part, err := dm.Submit(p, pilot.DataUnitDescription{
				Name:      fmt.Sprintf("/flow/g%03d/part-%02d", gi, mi),
				SizeBytes: ms.partBytes,
				Affinity:  labels[(gi*flowMaps+mi)%len(labels)],
			})
			l.prestageWall += time.Since(t0)
			x.tr.end(id)
			if err != nil {
				return err
			}
			if mapOuts[mi], err = declare(fmt.Sprintf("/flow/g%03d/map-%02d", gi, mi), ms.outBytes); err != nil {
				return err
			}
			desc := pilot.ComputeUnitDescription{
				Name:       fmt.Sprintf("g%03d-map-%02d", gi, mi),
				Executable: "/bin/map",
				Arguments:  []string{fmt.Sprintf("--graph=%d", gi), fmt.Sprintf("--part=%d", mi)},
				Cores:      flowUnitCores,
				Inputs:     []pilot.DataRef{{Unit: part}},
				Outputs:    []pilot.DataRef{mapOuts[mi]},
				Body:       compute(ms.work, &l.execs),
			}
			if _, err := g.Add(desc); err != nil {
				return err
			}
			if gi%2 == 0 {
				desc.Body = compute(ms.work, &l.resubmitExecs)
				resubmit = append(resubmit, desc)
			}
		}
		reduceOuts := make([]pilot.DataRef, len(gs.reduces))
		for ri, rs := range gs.reduces {
			var err error
			if reduceOuts[ri], err = declare(fmt.Sprintf("/flow/g%03d/reduce-%02d", gi, ri), rs.outBytes); err != nil {
				return err
			}
			ins := make([]pilot.DataRef, len(rs.inputs))
			for k, mi := range rs.inputs {
				ins[k] = mapOuts[mi]
			}
			if _, err := g.Add(pilot.ComputeUnitDescription{
				Name:       fmt.Sprintf("g%03d-reduce-%02d", gi, ri),
				Executable: "/bin/reduce",
				Arguments:  []string{fmt.Sprintf("--graph=%d", gi), fmt.Sprintf("--reduce=%d", ri)},
				Cores:      flowUnitCores,
				Inputs:     ins,
				Outputs:    []pilot.DataRef{reduceOuts[ri]},
				Body:       compute(rs.work, &l.execs),
			}); err != nil {
				return err
			}
		}
		out, err := declare(fmt.Sprintf("/flow/g%03d/merged", gi), 1<<20)
		if err != nil {
			return err
		}
		if _, err := g.Add(pilot.ComputeUnitDescription{
			Name:       fmt.Sprintf("g%03d-merge", gi),
			Executable: "/bin/merge",
			Arguments:  []string{fmt.Sprintf("--graph=%d", gi)},
			Cores:      flowUnitCores,
			Inputs:     reduceOuts,
			Outputs:    []pilot.DataRef{out},
			Body:       compute(gs.merge, &l.execs),
		}); err != nil {
			return err
		}
		graphs[gi] = g
	}

	if !x.beginRun(p) {
		return nil
	}
	for gi, g := range graphs {
		p.Sleep(x.startV + time.Duration(gi)*flowArrival - p.Now())
		id := x.tr.begin("graph.submit", x.runSpan)
		t0 := time.Now()
		units, err := g.Submit(p, x.um)
		l.admitWall += time.Since(t0)
		x.tr.end(id)
		if err != nil {
			return err
		}
		x.units = append(x.units, units...)
	}
	x.um.WaitAll(p, x.units)
	units, err := x.submit(p, resubmit)
	if err != nil {
		return err
	}
	x.units = append(x.units, units...)
	x.um.WaitAll(p, units)
	x.endRun(p)
	return nil
}

// collect derives the rep's unit-level readings and checks the
// correctness gate.
func (x *repRun) collect(rec *pilot.Recorder, reg *pilot.MetricsRegistry) error {
	r, l := x.r, &x.r.layer
	r.submitted = len(x.units)
	if want := x.in.units(); r.submitted != want {
		return fmt.Errorf("%d units submitted, want %d", r.submitted, want)
	}
	for _, u := range x.units {
		st := u.State()
		if !st.Final() {
			return fmt.Errorf("unit %s ended in non-final state %v", u.ID, st)
		}
		ts := u.Timestamps
		if st == pilot.UnitDone {
			r.done++
			r.turnaround = append(r.turnaround, ts[pilot.UnitDone]-ts[pilot.UnitNew])
		}
		if sched, ok := ts[pilot.UnitSchedulingUM]; ok {
			if pend, ok := ts[pilot.UnitPendingAgent]; ok {
				l.umWait = append(l.umWait, pend-sched)
				if exec, ok := ts[pilot.UnitExecuting]; ok {
					l.agentWait = append(l.agentWait, exec-pend)
				}
			}
			if held, ok := ts[pilot.UnitPendingInput]; ok {
				l.held = append(l.held, sched-held)
			}
		}
		if stage, ok := ts[pilot.UnitStagingInput]; ok {
			if exec, ok := ts[pilot.UnitExecuting]; ok {
				l.stageIn = append(l.stageIn, exec-stage)
			}
		}
	}
	if x.poolDone != r.done {
		return fmt.Errorf("%d units DONE, but pilots and result cache account for %d", r.done, x.poolDone)
	}
	if rec != nil {
		if got := int(reg.Total("pilot_units_done")); got != r.done {
			return fmt.Errorf("registry counts %d units done, want %d", got, r.done)
		}
		if err := pilot.VerifyBinds(x.audit); err != nil {
			return fmt.Errorf("recorder bind invariants: %w", err)
		}
		if got := pilot.DoneUnits(x.audit); got != r.done {
			return fmt.Errorf("recorder saw %d DONE units, want %d", got, r.done)
		}
		l.eventsRetained = rec.Len()
	}
	for _, du := range x.declared {
		if du.State() != pilot.DataReplicated {
			return fmt.Errorf("declared output %s ended %v, want REPLICATED", du.Name(), du.State())
		}
	}
	if l.resubmitExecs != 0 {
		return fmt.Errorf("resubmission phase ran %d bodies, want 0", l.resubmitExecs)
	}
	l.fabricBytes = x.m.Fabric.BytesMoved()
	var busy time.Duration
	for _, n := range x.m.Nodes {
		busy += n.NIC.BusyTime()
	}
	if x.r.virtualEnd > 0 {
		l.nicBusyFrac = busy.Seconds() / (float64(len(x.m.Nodes)) * x.r.virtualEnd.Seconds())
	}
	sc := x.scr
	r.scrapes, r.scrapeFailed, r.scrapeBytes, r.series = sc.samples, sc.failed, sc.bytes, sc.series
	return nil
}
