package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the cpu.* buckets: the repository's packages by name, the Go
// runtime, the rest of the standard library, and everything else (apps,
// fault, cfbench, this benchmark).
var cpuLayers = []string{
	"arm", "dvm", "core", "taint", "mem", "libc", "kernel", "static",
	"summary", "surface", "service", "cas", "dex", "runtime", "std", "other",
}

// cpuProfile collects a runtime/pprof CPU profile in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, saves it to path for `go tool pprof`, and records
// cpu.<layer> as the layer's share of sampled CPU time, attributed by the
// leaf frame's package (self time).
func (p *cpuProfile) stop(res *result, path string) error {
	pprof.StopCPUProfile()
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	self, err := leafPackageTime(p.buf.Bytes())
	if err != nil {
		return err
	}
	var total float64
	for _, v := range self {
		total += v
	}
	for pkg, v := range self {
		res.metrics["cpu."+cpuLayer(pkg)] += ratio(v, total)
	}
	return nil
}

// cpuLayer maps a Go package path to its cpu.* bucket.
func cpuLayer(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, l := range cpuLayers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if !strings.Contains(strings.SplitN(pkg, "/", 2)[0], ".") && !strings.HasPrefix(pkg, "repro") && pkg != "main" {
		return "std"
	}
	return "other"
}

// funcPackage extracts the package path from a symbol name such as
// "repro/internal/arm.(*CPU).stepBlock" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// leafPackageTime decodes a gzipped profile.proto and sums the last sample
// value (CPU nanoseconds) by the package of each sample's leaf function.
// Only the fields needed for that are read: Profile.sample (2),
// Profile.location (4), Profile.function (5) and Profile.string_table (6).
func leafPackageTime(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			first := true
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids := varints(w, v, b)
					if first && len(ids) > 0 {
						s.loc, first = ids[0], false
					}
				case 2:
					vals = append(vals, varints(w, v, b)...)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			gotLine := false
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: the first entry is the innermost (inlined) frame
					if !gotLine {
						gotLine = true
						return eachField(b, func(f, w int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range samples {
		name := "unknown"
		if idx, ok := funcName[locFunc[s.loc]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[funcPackage(name)] += float64(s.value)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func varints(wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

var errProto = errors.New("cpu profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
