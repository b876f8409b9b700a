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

// This file reads the CPU profile runtime/pprof writes (a gzipped
// protocol buffer, profile.proto) far enough to charge each sample to a
// module: only samples, locations and function names are decoded.

const modulePrefix = "repro/internal/"

// stackSample is one profile sample: its weight and its stack as
// function names, innermost first.
type stackSample struct {
	weight int64
	funcs  []string
}

// cpuBuckets are the modules whose CPU share the traced run reports, then
// the buckets for stacks with no module frame: the garbage collector's
// workers, the benchmark's own code, and the rest of the runtime
// (scheduler, timers, idle polling). Samples in other modules are counted
// in the total but not reported.
var cpuBuckets = []string{"totem", "replication", "netsim", "transport", "cdr", "giop", "iiop", "orb", "wal", "fault",
	"gc", "harness", "runtime"}

// attribute charges every sample to the innermost repro/internal/<module>
// frame on its stack, or else to a bucket named by moduleOf. It returns
// each bucket's share of the total weight, in percent.
func attribute(samples []stackSample) map[string]float64 {
	weights := make(map[string]int64)
	var total int64
	for _, s := range samples {
		total += s.weight
		weights[moduleOf(s.funcs)] += s.weight
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, m := range cpuBuckets {
		out[m] = 0
	}
	if total == 0 {
		return out
	}
	for m, w := range weights {
		if _, ok := out[m]; ok {
			out[m] = 100 * float64(w) / float64(total)
		}
	}
	return out
}

// moduleOf names the bucket of one stack (innermost first).
func moduleOf(funcs []string) string {
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	for _, f := range funcs {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"):
			return "gc"
		case strings.HasPrefix(f, "main."), strings.HasPrefix(f, "repro/ftperf."):
			return "harness"
		}
	}
	return "runtime"
}

// parseProfile decodes the samples of a gzipped pprof profile. Each
// sample's weight is its last value (CPU nanoseconds for a CPU profile).
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []rawSample
		locFuncs = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcName = make(map[uint64]int64)    // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{weight: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protocol buffer")

// eachField walks the top-level fields of one protocol-buffer message.
// Varint fields pass their value in v; length-delimited fields pass
// their bytes in b. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
