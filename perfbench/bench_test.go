package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n        int
		q        float64
		want     float64
		wantTail int
	}{
		{100, 0.50, 50, 50},
		{100, 0.99, 99, 1},
		{200, 0.95, 190, 10},
		{1000, 0.99, 990, 10},
		{1, 0.99, 1, 0},
		{3, 1, 3, 0},
	}
	for _, c := range cases {
		got, tail := percentile(seq(c.n), c.q)
		if got != c.want || tail != c.wantTail {
			t.Errorf("percentile(1..%d, %v) = %v with %d beyond, want %v with %d beyond",
				c.n, c.q, got, tail, c.want, c.wantTail)
		}
	}
	if v, tail := percentile(nil, 0.5); v != 0 || tail != 0 {
		t.Errorf("percentile of no samples = %v, %d; want 0, 0", v, tail)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of 1,3,5 = %v, want 3", m)
	}
}

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/sim.(*Engine).Run":                              "sim",
		"repro/internal/yarn.(*ResourceManager).Metrics":                "yarn",
		"repro/internal/cache.(*LRU[go.shape.string,go.shape.int]).Get": "cache",
		"repro/internal/obs.MetricsHandler.func1":                       "obs",
		"repro/internal/registry/registrytest.Run":                      "other",
		"repro/internal/cluster.(*Machine).Transfer":                    "other",
		"repro/pilot.NewSession":                                        "other",
		"runtime.mallocgc":                                              "",
		"main.(*repRun).runBag":                                         "bench",
		"net/http.(*conn).serve":                                        "",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

// testProfile builds a gzipped CPU profile over the given functions.
// Each stack lists function indices leaf first; a location holding
// several functions models inlining (innermost first).
func testProfile(t *testing.T, funcs []string, locs [][]int, stacks [][]int, nanos []int64) []byte {
	t.Helper()
	var prof pb
	strs := append([]string{""}, funcs...)
	for i := range funcs {
		var f pb
		f.varint(1, uint64(i+1))
		f.varint(2, uint64(i+1))
		prof.bytes(5, f.b)
	}
	for i, fns := range locs {
		var l pb
		l.varint(1, uint64(i+1))
		for _, fn := range fns {
			var line pb
			line.varint(1, uint64(fn+1))
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	for i, st := range stacks {
		var s pb
		ids := make([]uint64, len(st))
		for j, loc := range st {
			ids[j] = uint64(loc + 1)
		}
		s.packed(1, ids...)
		s.packed(2, 1, uint64(nanos[i]))
		prof.bytes(2, s.b)
	}
	for _, str := range strs {
		prof.bytes(6, []byte(str))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCPUAttribution(t *testing.T) {
	funcs := []string{
		"runtime.mallocgc",                               // 0
		"repro/internal/sim.(*Engine).Run",               // 1
		"repro/internal/core.(*UnitManager).Submit",      // 2
		"repro/internal/yarn.(*ResourceManager).Metrics", // 3
		"main.(*repRun).runBag",                          // 4
		"runtime.gcBgMarkWorker",                         // 5
		"repro/pilot.NewSession",                         // 6
	}
	locs := [][]int{
		{0},    // loc 0: runtime leaf
		{1},    // loc 1: sim
		{2},    // loc 2: core
		{3, 2}, // loc 3: yarn inlined into core — yarn is innermost
		{4},    // loc 4: the benchmark's own frame
		{5},    // loc 5: GC worker
		{6},    // loc 6: pilot
	}
	stacks := [][]int{
		{0, 2, 1}, // malloc under core under sim → core
		{3, 1},    // inlined yarn → yarn
		{0, 4},    // malloc under the benchmark's own frame → bench
		{5},       // GC → runtime
		{1},       // sim self time
		{6, 4},    // pilot wrapper under the benchmark → other
	}
	nanos := []int64{30, 20, 10, 15, 20, 5}
	cpu, err := cpuByModule(testProfile(t, funcs, locs, stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"core": 30, "yarn": 20, "bench": 10, "runtime": 15, "sim": 20, "other": 5}
	for m, v := range want {
		if cpu[m] != v {
			t.Errorf("cpu[%s] = %d, want %d (all: %v)", m, cpu[m], v, cpu)
		}
	}
	sh := shares(cpu)
	var sum float64
	for _, m := range modules {
		sum += sh[m]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(sh) != len(modules) {
		t.Errorf("shares cover %d modules, want all %d", len(sh), len(modules))
	}
	if _, err := cpuByModule([]byte("not a profile")); err == nil {
		t.Error("a malformed profile parsed without error")
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the names test reads.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var wls []string
	for _, w := range bf.Workloads {
		check(w.Name)
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wls, workloadNames)
	}
	same := func(kind string, file []metricDef, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(file), len(prog))
			return
		}
		for i := range file {
			check(file[i].name)
			if !unit.MatchString(file[i].unit) {
				t.Errorf("unit %q of %s is not a valid unit", file[i].unit, file[i].name)
			}
			if file[i] != prog[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, the program prints %v", kind, i, file[i], prog[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s outside (0, 0.25]", m.Bound, m.Name)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
	if len(bf.Paths) != 1 || bf.Paths[0] != "perfbench" {
		t.Errorf("paths %v, want [perfbench]", bf.Paths)
	}
}

// smallSize keeps a repetition of every workload well under a second.
var smallSize = size{BagUnits: 2000, Graphs: 6}

func TestReducedRunsPassGate(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			for _, seed := range []int64{3, heldOutSeed(3)} {
				in, err := generate(wl, seed, smallSize)
				if err != nil {
					t.Fatal(err)
				}
				a, err := runRep(in, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				tr := newTracer()
				b, err := runRep(in, tr)
				if err != nil {
					t.Fatalf("seed %d traced: %v", seed, err)
				}
				if err := sameVirtualTimeline([]*rep{a, b}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if a.done != in.units() || a.submitted != in.units() {
					t.Errorf("seed %d: %d of %d units DONE, want all %d", seed, a.done, a.submitted, in.units())
				}
				if n := len(a.scrapes); n < minScrapes || a.scrapeFailed != 0 {
					t.Errorf("seed %d: %d scrapes, %d failed; want at least %d and none failed",
						seed, n, a.scrapeFailed, minScrapes)
				}
				if len(a.scrapes) != len(b.scrapes) {
					t.Errorf("seed %d: %d scrapes, then %d at the same seed", seed, len(a.scrapes), len(b.scrapes))
				}
				checkChrome(t, tr)
			}
		})
	}
}

// checkChrome applies cmd/tracecheck's rules to the exported trace.
func checkChrome(t *testing.T, tr *tracer) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  *int           `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	spans := 0
	names := map[string]int{}
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			names[ev.Name]++
			if ev.Ts == nil || ev.Dur == nil || *ev.Dur < 0 || ev.Pid == nil {
				t.Errorf("malformed span %q", ev.Name)
			}
		case "M":
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != len(tr.spans) {
		t.Errorf("exported %d spans, recorded %d", spans, len(tr.spans))
	}
	for _, n := range []string{"rep", "setup", "engine.run", "scrape"} {
		if names[n] == 0 {
			t.Errorf("no %q span in the trace (have %v)", n, names)
		}
	}
}

func TestMeasureReducedSize(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := config{workload: wlDataflowYARN, seed: 5, seconds: 1, trace: trace,
			traceFile: t.TempDir() + "/trace.json", size: smallSize}
		var out bytes.Buffer
		res, err := measure(cfg, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace=%v: result %+v", trace, res)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("trace=%v: metric %s missing or with unit %q", trace, d.name, m.Unit)
			}
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
		}
		if trace && res.Metrics["yarn.cpu_share"].Value <= 0 {
			t.Errorf("yarn.cpu_share is %v on dataflow-yarn, want > 0", res.Metrics["yarn.cpu_share"].Value)
		}
	}
}

func TestSameVirtualTimelineCatchesDrift(t *testing.T) {
	a := &rep{makespan: 10 * time.Second, turnaround: []time.Duration{time.Second}}
	b := &rep{makespan: 10 * time.Second, turnaround: []time.Duration{time.Second}}
	if err := sameVirtualTimeline([]*rep{a, b}); err != nil {
		t.Fatal(err)
	}
	b.makespan += time.Millisecond
	if err := sameVirtualTimeline([]*rep{a, b}); err == nil {
		t.Error("a makespan differing between repetitions passed")
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Errorf("unknown workload exited 0")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("unknown workload printed a result: %s", out.String())
	}
}
