package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// tidEngine is the one thread of the exported trace: the benchmark
// makes every call it times from the simulation's thread of control.
const tidEngine = 1

// bridgeSpanEvery keeps one Bridge.Apply span per this many recorder
// events. Every Apply is timed; keeping each as a span would hold
// millions of spans per repetition.
const bridgeSpanEvery = 1024

// span is one timed call made by the benchmark. Start is relative to
// the tracer's origin; Parent is the enclosing span's ID, 0 for a root.
type span struct {
	Name       string
	ID, Parent int
	Start, Dur time.Duration
}

// tracer keeps the spans of one traced repetition in memory. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span on the engine thread and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: time.Since(t.t0), Dur: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.Dur = time.Since(t.t0) - s.Start
}

// add records a span that has already finished.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent,
		Start: start.Sub(t.t0), Dur: d})
}

// writeChrome exports the spans as Chrome trace-event JSON: one
// complete ("X") event per span, with its ID and parent in args, plus
// thread-name metadata. cmd/tracecheck validates the format.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []event{
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: tidEngine, Args: map[string]any{"name": "engine"}},
	}
	for _, s := range t.spans {
		if s.Dur < 0 {
			return fmt.Errorf("span %d (%s) was never closed", s.ID, s.Name)
		}
		dur := us(s.Dur)
		events = append(events, event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: &dur,
			Pid: 1, Tid: tidEngine, Args: map[string]any{"id": s.ID, "parent": s.Parent}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeChromeFile writes the trace to path.
func (t *tracer) writeChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scraper is the one HTTP client of a repetition: it GETs /metrics over
// a single keep-alive connection and times each request. Scrapes are
// made from the simulation goroutine while the simulation waits, so a
// scrape's latency is the endpoint's own and not the wait for a core
// the engine holds; the engine's wall time includes it.
//
// Each timed scrape follows an untimed request for a path the endpoint
// does not serve, on the same connection. After the engine has held
// the CPU, the first request wakes the idle connection, the server's
// goroutine and its thread; on a virtual machine that wake-up varies
// from run to run by more than the exposition itself costs.
type scraper struct {
	base   string
	url    string
	client *http.Client
	tr     *tracer
	// parent is the span scrapes nest under.
	parent int
	body   strings.Builder

	samples []time.Duration
	failed  int
	bytes   int64
	series  int
}

func newScraper(addr string, tr *tracer) *scraper {
	return &scraper{
		base: "http://" + addr,
		url:  "http://" + addr + "/metrics",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		tr: tr,
	}
}

// scrape makes one timed GET; a failed one is counted, not returned.
func (s *scraper) scrape() {
	s.wake()
	s.body.Reset()
	t0 := time.Now()
	err := s.get()
	d := time.Since(t0)
	s.tr.add("scrape", s.parent, t0, d)
	if err != nil {
		s.failed++
		return
	}
	s.samples = append(s.samples, d)
	s.bytes += int64(s.body.Len())
	s.series = countSeries(s.body.String())
}

func (s *scraper) get() error {
	resp, err := s.client.Get(s.url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", s.url, resp.Status)
	}
	_, err = io.Copy(&s.body, resp.Body)
	return err
}

// wake makes the untimed request that precedes a timed scrape; its
// outcome does not matter, the timed scrape reports any failure.
func (s *scraper) wake() {
	resp, err := s.client.Get(s.base + "/wake")
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// close drops the client's connection.
func (s *scraper) close() { s.client.CloseIdleConnections() }

// countSeries counts the sample lines of a Prometheus text exposition.
func countSeries(text string) int {
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}
