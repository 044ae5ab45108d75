package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/pilot"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.golden from the current code")

const digestsGolden = "testdata/digests.golden"

// digestExperiments are the cmd/repro experiments the golden digests
// cover: all but the scale sweep, whose 10⁵ tier is too slow for a unit
// test. Figure 5 runs one trial per bar.
var digestExperiments = []struct {
	name string
	run  func(seed int64) error
}{
	{"fig5", func(seed int64) error { _, err := RunFig5(1, seed); return err }},
	{"fig6", func(seed int64) error { _, err := RunFig6(seed); return err }},
	{"ablate-shuffle", func(seed int64) error { _, err := RunShuffleAblation(seed); return err }},
	{"ablate-amreuse", func(seed int64) error { _, err := RunAMReuseAblation(seed); return err }},
	{"sched", func(seed int64) error { _, err := RunSchedulerComparison(seed); return err }},
	{"elastic", func(seed int64) error { _, err := RunElasticComparison(seed); return err }},
	{"data", func(seed int64) error { _, err := RunStagingComparison(seed); return err }},
	{"dataelastic", func(seed int64) error { _, err := RunDataElasticComparison(seed); return err }},
	{"dag", func(seed int64) error { _, err := RunDAGComparison(seed); return err }},
	{"cache", func(seed int64) error { _, err := RunCacheComparison(seed); return err }},
}

// cellDigests runs every covered experiment at seed 42 under a Tap and
// returns one SHA-256 per cell over the cell's Chrome trace and gauge
// series bytes, keyed "<experiment>/<cell index>/<cell label>" (labels
// repeat across cells of the NewEnv-based experiments).
func cellDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, exp := range digestExperiments {
		tap := new(Tap)
		SetTap(tap)
		err := exp.run(42)
		SetTap(nil)
		if err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		if len(tap.cells) == 0 {
			t.Fatalf("%s: tap collected no cells", exp.name)
		}
		for i, c := range tap.cells {
			var buf bytes.Buffer
			if err := pilot.WriteChromeTraceCells(&buf, []pilot.TraceCell{{Label: c.label, Events: c.events}}); err != nil {
				t.Fatalf("%s cell %d trace: %v", exp.name, i, err)
			}
			if c.series != nil {
				if err := c.series.WriteJSONL(&buf, c.label); err != nil {
					t.Fatalf("%s cell %d series: %v", exp.name, i, err)
				}
			}
			sum := sha256.Sum256(buf.Bytes())
			out[fmt.Sprintf("%s/%02d/%s", exp.name, i, c.label)] = hex.EncodeToString(sum[:])
		}
	}
	return out
}

// TestGoldenDigests pins the exact flight-recorder output of every
// experiment cell at seed 42, so a refactor that claims unchanged
// behaviour is checked byte for byte, and one that moves a cell names
// it. Regenerate with `go test -run Digest ./internal/experiments
// -update` and review the golden diff. It installs the process-global
// Tap, so it must not call t.Parallel.
func TestGoldenDigests(t *testing.T) {
	got := cellDigests(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if *updateDigests {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", got[k], k)
		}
		if err := os.MkdirAll(filepath.Dir(digestsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readDigests(t)
	for _, k := range keys {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("cell %s: not in %s", k, digestsGolden)
		case w != got[k]:
			t.Errorf("cell %s: digest %s, golden %s", k, got[k][:12], w[:12])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("cell %s: in %s but no longer produced", k, digestsGolden)
		}
	}
}

// readDigests parses the golden file: one "<sha256> <cell key>" per line.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, key, ok := strings.Cut(sc.Text(), " ")
		if !ok || len(sum) != sha256.Size*2 {
			t.Fatalf("%s: malformed line %q", digestsGolden, sc.Text())
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
