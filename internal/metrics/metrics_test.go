package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestSampleStatistics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 || s.N() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	for _, v := range []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second} {
		s.Add(v)
	}
	if s.N() != 3 {
		t.Fatalf("n = %d", s.N())
	}
	if s.Mean() != 4*time.Second {
		t.Fatalf("mean = %v, want 4s", s.Mean())
	}
	if s.Min() != 2*time.Second || s.Max() != 6*time.Second {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	// Population std of {2,4,6} = sqrt(8/3) ≈ 1.633s.
	std := s.Std()
	if std < 1600*time.Millisecond || std > 1670*time.Millisecond {
		t.Fatalf("std = %v, want ~1.633s", std)
	}
}

func TestPercentiles(t *testing.T) {
	var empty Sample
	if empty.Percentile(0.5) != 0 || empty.P50() != 0 || empty.P95() != 0 {
		t.Fatal("empty sample percentiles should be 0")
	}
	var s Sample
	// Insert out of order: Percentile must not depend on Add order, and
	// must not mutate the sample.
	for _, v := range []time.Duration{
		9 * time.Second, 1 * time.Second, 5 * time.Second, 3 * time.Second, 7 * time.Second,
		10 * time.Second, 2 * time.Second, 6 * time.Second, 4 * time.Second, 8 * time.Second,
	} {
		s.Add(v)
	}
	if got := s.P50(); got != 5*time.Second {
		t.Errorf("P50 = %v, want 5s", got)
	}
	if got := s.P95(); got != 10*time.Second {
		t.Errorf("P95 = %v, want 10s", got)
	}
	if got := s.Percentile(0.10); got != time.Second {
		t.Errorf("P10 = %v, want 1s", got)
	}
	// Clamping at the extrema.
	if got := s.Percentile(0); got != time.Second {
		t.Errorf("Percentile(0) = %v, want 1s", got)
	}
	if got := s.Percentile(1); got != 10*time.Second {
		t.Errorf("Percentile(1) = %v, want 10s", got)
	}
	if got := s.Percentile(2); got != 10*time.Second {
		t.Errorf("Percentile(2) = %v, want 10s (clamped)", got)
	}
	// The sample itself stays in insertion order (Min/Max still work).
	if s.Min() != time.Second || s.Max() != 10*time.Second {
		t.Errorf("min/max disturbed: %v/%v", s.Min(), s.Max())
	}
	// Single observation: every percentile is that value.
	var one Sample
	one.Add(42 * time.Second)
	if one.P50() != 42*time.Second || one.P95() != 42*time.Second {
		t.Errorf("single-sample percentiles = %v/%v", one.P50(), one.P95())
	}
}

func TestSecondsFormat(t *testing.T) {
	if got := Seconds(1500 * time.Millisecond); got != "1.5" {
		t.Fatalf("Seconds = %q", got)
	}
	if got := Seconds(0); got != "0.0" {
		t.Fatalf("Seconds(0) = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("machine", "value")
	tb.AddRow("stampede", "42.0")
	tb.AddRow("wrangler") // short row padded
	var sb strings.Builder
	tb.Write(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "machine") {
		t.Fatalf("header line %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("separator line %q", lines[1])
	}
	if !strings.Contains(lines[2], "stampede") || !strings.Contains(lines[2], "42.0") {
		t.Fatalf("row line %q", lines[2])
	}
	// Columns aligned: "stampede" is the widest cell in col 0.
	if !strings.HasPrefix(lines[3], "wrangler") {
		t.Fatalf("padded row %q", lines[3])
	}
}

// TestPercentileCacheInvalidation: quantiles stay correct when reads
// interleave with new observations (the sorted cache must rebuild).
func TestPercentileCacheInvalidation(t *testing.T) {
	var s Sample
	s.Add(4 * time.Second)
	s.Add(2 * time.Second)
	if got := s.P50(); got != 2*time.Second {
		t.Fatalf("P50 of {2,4} = %v, want 2s", got)
	}
	s.Add(time.Second) // invalidates the cached order
	if got := s.P50(); got != 2*time.Second {
		t.Fatalf("P50 of {1,2,4} = %v, want 2s", got)
	}
	if got := s.Percentile(1); got != 4*time.Second {
		t.Fatalf("max quantile = %v, want 4s", got)
	}
	s.Add(10 * time.Second)
	if got := s.Percentile(1); got != 10*time.Second {
		t.Fatalf("max quantile after add = %v, want 10s", got)
	}
}

// BenchmarkSamplePercentile reads two quantiles per appended
// observation — the experiment harness's access pattern. The sorted
// cache makes the repeated reads O(1) between observations.
func BenchmarkSamplePercentile(b *testing.B) {
	var s Sample
	for i := 0; i < 10_000; i++ {
		s.Add(time.Duration(i*7919%10_000) * time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.P50() == 0 || s.P95() == 0 {
			b.Fatal("unexpected zero quantile")
		}
	}
}
