// Command perfbench is the repository's benchmark: it runs one workload
// of the simulated Pilot stack end to end, checks that the outputs are
// correct, and prints every metric by name with its unit. The last line
// of standard output is one JSON object,
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": ..., "unit": "s"}, ...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics of
// a separate traced run (--trace 1). It exits non-zero on any
// correctness violation. Run it from the repository root:
//
//	bash perfbench/run.sh --workload bag --seed 1 --seconds 20 --trace 0
//
// The benchmark drives the public pilot API plus the internal/cluster,
// internal/hpc, internal/sim and internal/storage constructors the
// experiments use. It measures every layer from outside: by timing and
// counting at the calls it makes, and by reading public accessors. Load
// comes from this one process: the simulation goroutine, which also
// scrapes the live /metrics endpoint over one HTTP connection, and the
// endpoint's server goroutine.
//
// # Workloads
//
// Each workload is generated from --seed; the program receives only
// the generated descriptions. A run first executes the workload once
// at a held-out seed (derived from --seed) through the same gate, which
// also warms the process up, then repeats it at --seed for --seconds
// and reports medians over the repetitions.
//
//   - bag: 50,000 1-core units under the backfill binder on 16 HPC-mode
//     pilots (two 8-core nodes each), telemetry off. Almost all the work
//     is in the sim kernel and the core bind loop (park index,
//     ClusterView); the data, graph, cache, yarn, obs and metrics layers
//     do none. The scale sweep's largest cell has this shape.
//   - bag-telemetry: the same units, pilots and seed, plus a flight
//     recorder (WithRecorder), a metrics bridge on Recorder.OnRecord and
//     a live ServeMetrics endpoint. This is the "leave telemetry on"
//     configuration; its difference from bag is the cost of the obs and
//     metrics layers. A telemetry optimisation should move this workload
//     and not bag; a bind-loop optimisation should move both.
//   - dataflow-yarn: 100 map→reduce→merge UnitGraphs of 37 units each
//     (12 maps, 24 reduces reading 3 map outputs each, one merge),
//     arriving 10 virtual seconds apart, with critical-path ordering, on
//     8 Mode I (YARN) pilots. Each pilot has an HDFS data pilot on
//     pl.HDFS() holding the pre-staged partitions; binding uses the
//     co-locate scheduler with WithResultCache; maps write declared
//     outputs that reduces read. A final phase resubmits the maps of
//     every second graph with identical UnitKeys, which the cache must
//     serve without running a body. Reads run beside writes and most
//     units are held in UMGR_PENDING_INPUT, so the bind loop sees few
//     units at a time; this exercises the yarn, hdfs, data, graph and
//     cache layers that bag bypasses.
//
// The /metrics endpoint is up and scraped on every workload at a fixed
// virtual interval (at least 256 scrapes a repetition, the same count
// at one seed) while the simulation waits; only bag-telemetry feeds its
// registry, so on the other two a scrape costs the empty exposition and
// scrape_* is the endpoint's floor.
//
// # End-to-end metrics
//
// setup_s (engine creation to the first unit submission: session,
// resource, pilots reaching ACTIVE, data pilots, input pre-staging,
// declaring outputs and building the graphs; generating the workload
// is not counted),
// units_per_s (units reaching a final state per wall second of the run
// phase), makespan_vs, turnaround_p50_vs and turnaround_p99_vs (virtual
// seconds, submission to DONE), alloc_bytes_per_unit and
// allocs_per_unit (runtime.MemStats deltas over the run phase),
// peak_rss_mb (VmHWM of this process), ops_ok_frac (one minus the
// failed fraction: units not DONE plus failed scrapes over units plus
// scrapes attempted; the text output also prints ops_failed_frac), and
// scrape_p50_ms (wall latency of GET /metrics: the median over
// repetitions of each repetition's p50). Timings are medians over the
// repetitions; the text output gives each one's sample count and, for a
// percentile, how many samples lie beyond it, and prints every
// repetition's readings, its scrape p95 among them.
//
// The scrape p95 is a per-layer metric (metrics.scrape_p95_ms) rather
// than an end-to-end one: on bag-telemetry it rises with every slow
// spell of the host, as scrapes that overlap a collection of the large
// recorder heap pay for it, and ten runs spread by more than any bound
// a regression check could use.
//
// # Per-layer metrics
//
// Each is prefixed by its module, with the end-to-end metric it should
// move and the workload it should move on. Where a workload bypasses a
// layer the prediction is zero or no change; those pairings are in the
// last column.
//
//	metric                          moves                   on             predicted zero or no change
//	sim.vsec_per_wall_s             units_per_s             all            -
//	sim.procs_peak                  peak_rss_mb             bag            -
//	cluster.fabric_bytes_per_unit   makespan_vs             dataflow-yarn  0 on bag, bag-telemetry
//	cluster.nic_busy_frac           makespan_vs             dataflow-yarn  0 on bag, bag-telemetry
//	core.offers_per_unit            units_per_s             bag            -
//	core.bind_passes_per_unit       units_per_s             bag            -
//	core.submit_ms                  units_per_s             bag            -
//	core.um_wait_p50_vs, _p99_vs    turnaround_p99_vs       bag            -
//	core.agent_wait_p50_vs          turnaround_p50_vs       dataflow-yarn  no change on bag (fork launch)
//	core.held_p50_vs                makespan_vs             dataflow-yarn  0 on bag, bag-telemetry
//	data.prestage_ms                setup_s                 dataflow-yarn  0 on bag, bag-telemetry
//	data.stagein_p50_vs             makespan_vs             dataflow-yarn  no change on bag (no inputs)
//	graph.admit_ms                  units_per_s             dataflow-yarn  0 on bag, bag-telemetry
//	cache.hit_frac                  makespan_vs             dataflow-yarn  0 on bag, bag-telemetry
//	cache.execs_per_unit            makespan_vs             dataflow-yarn  1 on bag, bag-telemetry
//	obs.events_emitted_per_unit     units_per_s, alloc_*    bag-telemetry  0 on bag, dataflow-yarn
//	obs.events_retained_per_unit    peak_rss_mb             bag-telemetry  0 on bag, dataflow-yarn
//	metrics.bridge_ns_per_event     units_per_s             bag-telemetry  0 on bag, dataflow-yarn
//	metrics.scrape_bytes, .series   scrape_p50_ms           bag-telemetry  0 on bag, dataflow-yarn
//	metrics.scrape_p95_ms           (tail of scrape_p50_ms) bag-telemetry  the endpoint floor elsewhere
//	runtime.gc_cycles, .gc_pause_ms units_per_s             all            -
//	yarn.cpu_share                  units_per_s             dataflow-yarn  0 on bag, bag-telemetry
//	obs/metrics.cpu_share           units_per_s             bag-telemetry  about 0 on bag, dataflow-yarn
//	other <module>.cpu_share        units_per_s             all            -
//	trace.overhead_frac             (traced against untraced repetition wall time)
//
// cpu_share covers sim, core, hpc, yarn, hdfs, data, graph, cache, obs,
// metrics, bench (this benchmark's own code), runtime and other; the
// shares sum to 1. Wall-time readings
// are medians over the traced repetitions; counts come from the first.
//
// # Traced run
//
// With --trace 1 the run alternates an untraced and a traced
// repetition. A traced repetition records spans (name, start, end,
// parent) around set-up, each admission call (DataManager.Submit of an
// input, UnitGraph.Submit, UnitManager.Submit), Engine.Run, each scrape
// and every 1024th Bridge.Apply (every Apply is timed), samples
// Engine.Processes on the scrape grid, and takes a runtime/pprof CPU
// profile. Each profile sample goes to the innermost frame in a repro
// package, so each module's self time is counted once; frames of this
// benchmark count as bench, and samples with neither go to runtime. The first traced repetition's spans are
// written as Chrome trace-event JSON to
// .bench_build/perfbench-trace-<workload>.json (see --trace-file), which
// cmd/tracecheck accepts; the text output prints its span count.
//
// To reproduce one per-layer number, for example graph.admit_ms on
// dataflow-yarn at seed 7:
//
//	bash perfbench/run.sh --workload dataflow-yarn --seed 7 --seconds 20 --trace 1
//	go run ./cmd/tracecheck -spans <count printed above> .bench_build/perfbench-trace-dataflow-yarn.json
//
// then sum the durations of the "graph.submit" spans in that file: the
// sum is the first traced repetition's graph.admit_ms, and the printed
// value is the median of that sum over the traced repetitions.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json lists, in order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"makespan_vs", "vs"},
	{"turnaround_p50_vs", "vs"},
	{"turnaround_p99_vs", "vs"},
	{"alloc_bytes_per_unit", "B"},
	{"allocs_per_unit", "count"},
	{"peak_rss_mb", "MB"},
	{"ops_ok_frac", "frac"},
	{"scrape_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"sim.vsec_per_wall_s", "vs/s"},
	{"sim.procs_peak", "count"},
	{"cluster.fabric_bytes_per_unit", "B"},
	{"cluster.nic_busy_frac", "frac"},
	{"core.offers_per_unit", "count"},
	{"core.bind_passes_per_unit", "count"},
	{"core.submit_ms", "ms"},
	{"core.um_wait_p50_vs", "vs"},
	{"core.um_wait_p99_vs", "vs"},
	{"core.agent_wait_p50_vs", "vs"},
	{"core.held_p50_vs", "vs"},
	{"data.prestage_ms", "ms"},
	{"data.stagein_p50_vs", "vs"},
	{"graph.admit_ms", "ms"},
	{"cache.hit_frac", "frac"},
	{"cache.execs_per_unit", "count"},
	{"obs.events_emitted_per_unit", "count"},
	{"obs.events_retained_per_unit", "count"},
	{"metrics.bridge_ns_per_event", "ns"},
	{"metrics.scrape_bytes", "B"},
	{"metrics.series", "count"},
	{"metrics.scrape_p95_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"sim.cpu_share", "frac"},
	{"core.cpu_share", "frac"},
	{"hpc.cpu_share", "frac"},
	{"yarn.cpu_share", "frac"},
	{"hdfs.cpu_share", "frac"},
	{"data.cpu_share", "frac"},
	{"graph.cpu_share", "frac"},
	{"cache.cpu_share", "frac"},
	{"obs.cpu_share", "frac"},
	{"metrics.cpu_share", "frac"},
	{"bench.cpu_share", "frac"},
	{"runtime.cpu_share", "frac"},
	{"other.cpu_share", "frac"},
	{"trace.overhead_frac", "frac"},
}

// minReps is the fewest measured repetitions a run makes, however
// short --seconds is; setupSamples and maxSetupSamples bound the
// set-up-only repetitions that precede them.
const (
	minReps         = 3
	setupSamples    = 15
	maxSetupSamples = 200
)

// heldOutSeed derives the seed of the unmeasured, gated warm-up
// repetition: a second seed the gate must also pass.
func heldOutSeed(seed int64) int64 { return seed ^ 0x5eed_0b5e }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation.
type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	traceFile string
	size      size
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{size: fullSize}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "how long to repeat the workload, in wall seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&cfg.traceFile, "trace-file", "", "Chrome trace output of --trace 1 (default .bench_build/perfbench-trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds < 1 {
		fs.Usage()
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.trace && cfg.traceFile == "" {
		cfg.traceFile = filepath.Join(".bench_build", "perfbench-trace-"+cfg.workload+".json")
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	res, err := measure(cfg, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the invocation and returns its result. A nil result
// comes with a usage or environment error; a result with Correct false
// comes with the violation.
func measure(cfg config, out io.Writer) (*result, error) {
	in, err := generate(cfg.workload, cfg.seed, cfg.size)
	if err != nil {
		return nil, err
	}
	held, err := generate(cfg.workload, heldOutSeed(cfg.seed), cfg.size)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%v units/rep=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, in.units())
	prov, _ := json.Marshal(provenance(cfg.seed))
	fmt.Fprintf(out, "provenance %s\n", prov)

	fail := func(err error) (*result, error) {
		return &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}},
			fmt.Errorf("correctness violation: %w", err)
	}
	if _, err := runRep(held, nil); err != nil {
		return fail(fmt.Errorf("held-out seed %d: %w", held.seed, err))
	}
	fmt.Fprintf(out, "held-out seed %d: gate passed (%d units)\n", held.seed, held.units())
	runtime.GC()

	// Set-up is short next to a repetition, so it is sampled on its own:
	// at least setupSamples times and for a tenth of the run, at most
	// maxSetupSamples times. The traced run does not report it.
	var setups []float64
	setupEnd := time.Now().Add(time.Duration(cfg.seconds) * time.Second / 10)
	for !cfg.trace && (len(setups) < setupSamples || (time.Now().Before(setupEnd) && len(setups) < maxSetupSamples)) {
		d, err := runSetup(in)
		if err != nil {
			return fail(err)
		}
		setups = append(setups, d.Seconds())
		runtime.GC()
	}

	var reps, traced []*rep
	var first *tracer
	cpu := map[string]int64{}
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(reps) < minReps || time.Now().Before(deadline) {
		r, err := runRep(in, nil)
		if err != nil {
			return fail(err)
		}
		reps = append(reps, r)
		runtime.GC()
		if !cfg.trace {
			continue
		}
		tr := newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		r, err = runRep(in, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return fail(err)
		}
		byMod, err := cpuByModule(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for m, v := range byMod {
			cpu[m] += v
		}
		if first == nil {
			first = tr
		}
		traced = append(traced, r)
		runtime.GC()
	}
	all := append(append([]*rep(nil), reps...), traced...)
	if err := sameVirtualTimeline(all); err != nil {
		return fail(err)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range all {
		res.Attempted += r.submitted + len(r.scrapes) + r.scrapeFailed
		res.Failed += r.submitted - r.done + r.scrapeFailed
	}
	var values map[string]float64
	var notes map[string]string
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		values = layerMetrics(traced, reps, cpu)
		if err := os.MkdirAll(filepath.Dir(cfg.traceFile), 0o755); err != nil {
			return nil, err
		}
		if err := first.writeChromeFile(cfg.traceFile); err != nil {
			return nil, fmt.Errorf("trace export: %w", err)
		}
		fmt.Fprintf(out, "trace %s: %d spans from the first traced repetition (go run ./cmd/tracecheck -spans %d %s)\n",
			cfg.traceFile, len(first.spans), len(first.spans), cfg.traceFile)
	} else {
		for _, r := range reps {
			setups = append(setups, r.setup.Seconds())
		}
		values, notes = endToEndMetrics(reps, setups, peakRSSMB(), res)
	}
	fmt.Fprintf(out, "%-32s %16s  %-6s %s\n", "metric", "value", "unit", "detail")
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(out, "%-32s %16.6g  %-6s %s\n", d.name, values[d.name], d.unit, notes[d.name])
	}
	if !cfg.trace {
		for i, r := range reps {
			p50, p95 := scrapePercentile(r, 0.50), scrapePercentile(r, 0.95)
			fmt.Fprintf(out, "repetition %d: set-up %.4fs, run %.3fs, %.0f units/s, %d GC cycles, %d scrapes p50 %.3fms p95 %.3fms\n",
				i+1, r.setup.Seconds(), r.run.Seconds(), float64(r.submitted)/r.run.Seconds(), r.gcCycles, len(r.scrapes), p50, p95)
		}
		failedFrac := 1 - values["ops_ok_frac"]
		fmt.Fprintf(out, "%-32s %16.6g  %-6s %d of %d operations failed\n", "ops_failed_frac", failedFrac, "frac",
			res.Failed, res.Attempted)
	}
	return res, nil
}

// sameVirtualTimeline checks that every repetition at one seed produced
// the same virtual-time readings: the simulation is deterministic, so a
// difference is a bug, not noise.
func sameVirtualTimeline(reps []*rep) error {
	var want map[string]float64
	for i, r := range reps {
		got := vsMetrics(r)
		if want == nil {
			want = got
			continue
		}
		for k, v := range want {
			if got[k] != v {
				return fmt.Errorf("%s differs between repetitions at one seed: %v in the first, %v in repetition %d",
					k, v, got[k], i+1)
			}
		}
	}
	return nil
}

// vsMetrics are a repetition's virtual-time readings.
func vsMetrics(r *rep) map[string]float64 {
	vs := func(ds []time.Duration) []float64 { return toFloats(ds, time.Second) }
	m := map[string]float64{"makespan_vs": r.makespan.Seconds()}
	m["turnaround_p50_vs"], _ = percentile(vs(r.turnaround), 0.50)
	m["turnaround_p99_vs"], _ = percentile(vs(r.turnaround), 0.99)
	m["core.um_wait_p50_vs"], _ = percentile(vs(r.layer.umWait), 0.50)
	m["core.um_wait_p99_vs"], _ = percentile(vs(r.layer.umWait), 0.99)
	m["core.agent_wait_p50_vs"], _ = percentile(vs(r.layer.agentWait), 0.50)
	m["core.held_p50_vs"], _ = percentile(vs(r.layer.held), 0.50)
	m["data.stagein_p50_vs"], _ = percentile(vs(r.layer.stageIn), 0.50)
	return m
}

// endToEndMetrics computes the end-to-end metrics over the measured
// repetitions, with a sample-count note per metric.
func endToEndMetrics(reps []*rep, setups []float64, peakRSS float64, res *result) (map[string]float64, map[string]string) {
	v := map[string]float64{}
	notes := map[string]string{}
	over := func(f func(r *rep) float64) float64 { return medianOver(reps, f) }
	n := len(reps)
	repNote := fmt.Sprintf("median of %d repetitions", n)
	v["setup_s"] = median(setups)
	v["units_per_s"] = over(func(r *rep) float64 { return float64(r.submitted) / r.run.Seconds() })
	v["alloc_bytes_per_unit"] = over(func(r *rep) float64 { return ratio(float64(r.allocBytes), r.submitted) })
	v["allocs_per_unit"] = over(func(r *rep) float64 { return ratio(float64(r.allocs), r.submitted) })
	for _, k := range []string{"units_per_s", "alloc_bytes_per_unit", "allocs_per_unit"} {
		notes[k] = repNote
	}
	notes["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setups))

	r0 := reps[0]
	v["makespan_vs"] = r0.makespan.Seconds()
	notes["makespan_vs"] = "identical in every repetition"
	turn := toFloats(r0.turnaround, time.Second)
	var tail int
	v["turnaround_p50_vs"], tail = percentile(turn, 0.50)
	notes["turnaround_p50_vs"] = fmt.Sprintf("p50 of %d units, %d beyond; identical in every repetition", len(turn), tail)
	v["turnaround_p99_vs"], tail = percentile(turn, 0.99)
	notes["turnaround_p99_vs"] = fmt.Sprintf("p99 of %d units, %d beyond; identical in every repetition", len(turn), tail)

	v["peak_rss_mb"] = peakRSS
	notes["peak_rss_mb"] = "VmHWM of the process"
	if res.Attempted > 0 {
		v["ops_ok_frac"] = 1 - float64(res.Failed)/float64(res.Attempted)
	}
	notes["ops_ok_frac"] = fmt.Sprintf("%d of %d units and scrapes succeeded", res.Attempted-res.Failed, res.Attempted)

	v["scrape_p50_ms"] = over(func(r *rep) float64 { return scrapePercentile(r, 0.50) })
	notes["scrape_p50_ms"] = fmt.Sprintf("median over %d repetitions of the p50 of %d scrapes", n, len(r0.scrapes))
	return v, notes
}

// layerMetrics computes the per-layer metrics: wall-time readings as
// medians over the traced repetitions, counts from the first (they
// repeat), CPU shares over every traced repetition's profile, and the
// tracing overhead against the untraced repetitions.
func layerMetrics(traced, untraced []*rep, cpu map[string]int64) map[string]float64 {
	over := func(f func(r *rep) float64) float64 { return medianOver(traced, f) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	r0 := traced[0]
	l := &r0.layer
	units := r0.submitted
	v := vsMetrics(r0)
	for k := range v {
		if !strings.Contains(k, ".") {
			delete(v, k) // the end-to-end readings
		}
	}
	v["sim.vsec_per_wall_s"] = over(func(r *rep) float64 { return r.virtualEnd.Seconds() / r.engineRun.Seconds() })
	v["sim.procs_peak"] = float64(l.procsPeak)
	v["cluster.fabric_bytes_per_unit"] = ratio(l.fabricBytes, units)
	v["cluster.nic_busy_frac"] = l.nicBusyFrac
	v["core.offers_per_unit"] = ratio(float64(l.offers), units)
	v["core.bind_passes_per_unit"] = ratio(float64(l.bindPasses), units)
	v["core.submit_ms"] = over(func(r *rep) float64 { return ms(r.layer.submitWall) })
	v["data.prestage_ms"] = over(func(r *rep) float64 { return ms(r.layer.prestageWall) })
	v["graph.admit_ms"] = over(func(r *rep) float64 { return ms(r.layer.admitWall) })
	if l.cacheLookups > 0 {
		v["cache.hit_frac"] = float64(l.cacheServed) / float64(l.cacheLookups)
	}
	v["cache.execs_per_unit"] = ratio(float64(l.execs), r0.done)
	v["obs.events_emitted_per_unit"] = ratio(float64(l.eventsEmitted), units)
	v["obs.events_retained_per_unit"] = ratio(float64(l.eventsRetained), units)
	v["metrics.bridge_ns_per_event"] = over(func(r *rep) float64 {
		return ratio(float64(r.layer.bridgeWall), r.layer.bridgeCalls)
	})
	v["metrics.scrape_bytes"] = ratio(float64(r0.scrapeBytes), len(r0.scrapes))
	v["metrics.series"] = float64(r0.series)
	v["metrics.scrape_p95_ms"] = over(func(r *rep) float64 { return scrapePercentile(r, 0.95) })
	v["runtime.gc_cycles"] = over(func(r *rep) float64 { return float64(r.gcCycles) })
	v["runtime.gc_pause_ms"] = over(func(r *rep) float64 { return ms(r.gcPause) })
	for m, s := range shares(cpu) {
		v[m+".cpu_share"] = s
	}
	wall := func(r *rep) float64 { return r.wall.Seconds() }
	v["trace.overhead_frac"] = medianOver(traced, wall)/medianOver(untraced, wall) - 1
	return v
}

// scrapePercentile is the q-quantile of a repetition's scrape latencies
// in ms. A host stall slows every scrape in flight, so stalls cluster in
// a few repetitions; the median over repetitions of this keeps them
// from moving a result the way pooling all scrapes would.
func scrapePercentile(r *rep, q float64) float64 {
	x, _ := percentile(toFloats(r.scrapes, time.Millisecond), q)
	return x
}

// medianOver is the median of f over the repetitions.
func medianOver(reps []*rep, f func(r *rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
// Where /proc is missing it falls back to the memory the Go runtime
// obtained from the OS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// provenance describes the host and build a result came from.
func provenance(seed int64) map[string]any {
	p := map[string]any{
		"cpu": "unknown", "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": "unknown", "seed": seed, "held_out_seed": heldOutSeed(seed),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p["cpu"] = strings.TrimSpace(val)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value == "true"
			}
		}
	}
	return p
}
