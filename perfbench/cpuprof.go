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

// The CPU profile the traced run takes is runtime/pprof's gzipped
// profile.proto. The benchmark may import only the standard library, so
// this file decodes the handful of fields attribution needs: each sample's
// stack and value, each location's (inlined) functions, and the string
// table.

// modulePrefix starts every function name of the program under test.
const modulePrefix = "odyssey/"

// cpuLayers lists the layers cpu_share reports, in output order.
var cpuLayers = []string{
	"sim", "power", "core", "smartbattery", "netsim", "trace", "hw", "apps",
	"planes", "powerscope", "experiment", "chaos", "fleet",
	"go-runtime", "bench", "other",
}

// layerOfPackage maps a package path under odyssey/internal/ to its layer.
var layerOfPackage = map[string]string{
	"sim": "sim", "power": "power", "core": "core", "smartbattery": "smartbattery",
	"netsim": "netsim", "trace": "trace", "hw": "hw", "workload": "apps",
	"faults": "planes", "supervise": "planes", "offload": "planes",
	"powerscope": "powerscope", "experiment": "experiment", "chaos": "chaos",
	"fleet": "fleet",
}

// layerOfFunc returns the layer of a module function, or "" when the
// function is outside the module. The benchmark's own package is "main"
// in its binary and "odyssey/perfbench" in its test binary.
func layerOfFunc(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, modulePrefix+"perfbench.") {
		return "bench"
	}
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	// The package path ends at the first '.' after the last '/'.
	pkg := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	}
	rel := strings.TrimPrefix(pkg, modulePrefix+"internal/")
	if strings.HasPrefix(rel, "app/") {
		return "apps"
	}
	if l, ok := layerOfPackage[rel]; ok {
		return l
	}
	return "other"
}

// attribute returns the layer charged for one sample: that of the
// innermost module frame, so runtime work such as allocation under
// trace.NewLog counts as trace. frames run innermost first. A stack with
// no module frame (GC workers, the scheduler) is charged to go-runtime.
func attribute(frames []string) string {
	for _, fn := range frames {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	return "go-runtime"
}

// cpuShares decodes a CPU profile and returns each layer's share of the
// sampled CPU time, plus the number of samples.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	stacks, weights, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	by := map[string]float64{}
	total := 0.0
	for i, st := range stacks {
		by[attribute(st)] += weights[i]
		total += weights[i]
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = by[l] / total
		}
	}
	return shares, len(stacks), nil
}

// decodeProfile returns every sample's stack (function names, innermost
// first, inlined frames expanded) and its weight: CPU nanoseconds where the
// profile records them, else the sample count.
func decodeProfile(data []byte) ([][]string, []float64, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, nil, err
		}
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, u := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	weights := make([]float64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && idx < int64(len(strs)) {
					stacks[i] = append(stacks[i], strs[idx])
				}
			}
		}
		switch {
		case len(s.values) >= 2:
			weights[i] = float64(s.values[1])
		case len(s.values) == 1:
			weights[i] = float64(s.values[0])
		}
	}
	return stacks, weights, nil
}

// appendPacked appends a repeated varint field's values, whether encoded
// packed (wire type 2) or one per field.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("cpuprof: truncated protobuf")

// eachField calls fn for every field of one protobuf message: varint and
// fixed fields pass their value in v, length-delimited fields their bytes
// in b.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("cpuprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
