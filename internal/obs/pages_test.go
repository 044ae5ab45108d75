package obs

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestRecorderAcrossPages records past two page boundaries and checks
// the stream reads back exactly as a flat slice would have held it.
func TestRecorderAcrossPages(t *testing.T) {
	const n = 2*pageSize + 1
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	var hooked []Event
	r.OnRecord(func(ev Event) { hooked = append(hooked, ev) })
	for i := 0; i < n; i++ {
		eng.At(time.Duration(i)*time.Millisecond, func() {
			kind := KindUnitState
			if i%4 == 0 {
				kind = KindBind
			}
			r.Record(Event{Kind: kind, Unit: fmt.Sprintf("u%d", i)})
			r.Sample(GaugeSample{QueueDepth: i})
		})
	}
	eng.Run()

	evs := r.Events()
	if len(evs) != n || r.Len() != n {
		t.Fatalf("Len = %d, events = %d, want %d", r.Len(), len(evs), n)
	}
	for i, ev := range evs {
		if ev.Seq != i || ev.At != time.Duration(i)*time.Millisecond || ev.Unit != fmt.Sprintf("u%d", i) {
			t.Fatalf("event %d = seq %d at %v unit %s", i, ev.Seq, ev.At, ev.Unit)
		}
	}
	if !reflect.DeepEqual(evs, hooked) {
		t.Fatal("Events() differs from the stream OnRecord saw")
	}
	if binds := (n + 3) / 4; r.Count(KindBind) != binds || r.Count(KindUnitState) != n-binds {
		t.Fatalf("counts: bind=%d state=%d, want %d and %d",
			r.Count(KindBind), r.Count(KindUnitState), binds, n-binds)
	}
	evs[pageSize].Unit = "mutated"
	evs = append(evs[:0], Event{Unit: "overwritten"})
	if got := r.Events(); got[0].Unit != "u0" || got[pageSize].Unit != fmt.Sprintf("u%d", pageSize) {
		t.Fatal("mutating Events() disturbed the recorder")
	}

	s := r.Series()
	if s.Len() != n {
		t.Fatalf("series Len = %d, want %d", s.Len(), n)
	}
	samples := s.Samples()
	for i, g := range samples {
		if g.QueueDepth != i || g.At != time.Duration(i)*time.Millisecond {
			t.Fatalf("sample %d = depth %d at %v", i, g.QueueDepth, g.At)
		}
	}
	if last := s.Last(); last.QueueDepth != n-1 {
		t.Fatalf("Last depth = %d, want %d", last.QueueDepth, n-1)
	}
	samples[0].QueueDepth = -1
	if s.Samples()[0].QueueDepth != 0 {
		t.Fatal("mutating Samples() disturbed the series")
	}
}

// TestEmptyStoresReadNil: an empty recorder and series read back as
// nil slices and a zero Last, as a nil flat slice did.
func TestEmptyStoresReadNil(t *testing.T) {
	r := NewRecorder(sim.NewEngine())
	if r.Events() != nil || r.Series().Samples() != nil {
		t.Fatal("empty recorder returned a non-nil slice")
	}
	if !reflect.DeepEqual(r.Series().Last(), GaugeSample{}) {
		t.Fatal("empty series Last is not the zero sample")
	}
}

// TestRecordAmortizedAllocs: with no hooks, recording allocates only a
// page per pageSize events.
func TestRecordAmortizedAllocs(t *testing.T) {
	r := NewRecorder(sim.NewEngine())
	ev := Event{Kind: KindUnitState, Unit: "unit.000001", State: "DONE"}
	if n := testing.AllocsPerRun(10*pageSize, func() { r.Record(ev) }); n >= 0.01 {
		t.Fatalf("Record: %v allocs per call, want < 0.01", n)
	}
}

// BenchmarkRecorderRecord measures one Record with no hooks attached.
func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder(sim.NewEngine())
	ev := Event{Kind: KindUnitState, Unit: "unit.000001", Pilot: "pilot.0001", State: "DONE", Cores: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(ev)
	}
}
