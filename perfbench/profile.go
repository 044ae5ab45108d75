package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the layers whose CPU share the traced run reports. A
// sample goes to the module of its innermost frame in a repro package;
// the benchmark's own frames (package main of repro/perfbench: the
// scrape client, the recorder hook, unit bodies) count as "bench", so
// a scrape made from inside Engine.Run is not charged to sim. A sample
// whose innermost such frame lies in another package (pilot, cluster,
// storage, saga, ...) counts as "other"; a sample with none at all (GC
// workers, the scheduler, the HTTP server plumbing) as "runtime".
var modules = []string{
	"sim", "core", "hpc", "yarn", "hdfs", "data", "graph", "cache", "obs", "metrics", "bench", "runtime", "other",
}

// moduleOf maps a function name from a profile to its module: the
// package directly under repro/internal/ or repro/, "bench" for the
// benchmark itself, "other" when that package is not in modules, and
// "" for a function outside both.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/")
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "internal/")
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest && m != "bench" && m != "runtime" && m != "other" {
			return m
		}
	}
	return "other"
}

// cpuByModule attributes the samples of a gzipped pprof CPU profile to
// modules, each sample to its innermost repro or benchmark frame, and
// returns the CPU nanoseconds per module.
func cpuByModule(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		mod := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				if m := moduleOf(p.strings[p.funcName[fid]]); m != "" {
					mod = m
					break frames
				}
			}
		}
		// The last value of a CPU profile sample is its CPU time in ns.
		if len(s.values) > 0 {
			out[mod] += s.values[len(s.values)-1]
		}
	}
	return out, nil
}

// shares turns per-module CPU time into fractions that sum to 1.
func shares(cpu map[string]int64) map[string]float64 {
	var total int64
	for _, v := range cpu {
		total += v
	}
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		if total > 0 {
			out[m] = float64(cpu[m]) / float64(total)
		}
	}
	return out
}

// pprofData is the subset of profile.proto the attribution needs.
type pprofData struct {
	samples  []sample
	locLines map[uint64][]uint64 // location ID → function IDs, innermost first
	funcName map[uint64]int64    // function ID → string table index
	strings  []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes the uncompressed protobuf of a pprof profile.
// Field numbers follow github.com/google/pprof/proto/profile.proto.
func parseProfile(b []byte) (*pprofData, error) {
	p := &pprofData{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					for _, x := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for id, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: varints
// arrive in v, length-delimited fields in data.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
