package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// Attribution. Each CPU sample and each allocation belongs to the layer of
// the innermost stack frame in this repository's code; a stack with no
// such frame (GC workers, the scheduler) belongs to runtime.

// repoPrefix is the import-path prefix of this repository's packages.
const repoPrefix = "repro/"

// layerOf maps a repository package path to its layer, "" for code that
// is not the repository's.
func layerOf(pkg string) string {
	if pkg == "main" {
		return "bench" // the benchmark itself
	}
	rest, ours := strings.CutPrefix(pkg, repoPrefix)
	if !ours {
		return ""
	}
	rest, _ = strings.CutPrefix(rest, "internal/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "sim", "ingress", "sched", "vllm", "telemetry", "metrics", "trace", "autoscale":
		return rest
	case "vhttp", "netsim":
		return "vhttp"
	case "benchmark", "bench", "workload", "sharegpt":
		return "bench"
	}
	// The deploy stack: core, slurm, flux, cruntime, oci, registry, fsim,
	// hw, site, and what they pull in.
	return "core"
}

// funcPackage extracts the package path from a fully qualified function
// name such as "repro/internal/sim.(*Engine).Step".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfStack returns the layer of the innermost repository frame of a
// stack given innermost first.
func layerOfStack(funcs []string) string {
	for _, fn := range funcs {
		if l := layerOf(funcPackage(fn)); l != "" {
			return l
		}
	}
	return "runtime"
}

// cpuByLayer reads a CPU profile written by runtime/pprof and sums its CPU
// nanoseconds per layer.
func cpuByLayer(path string) (map[string]int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	col := -1
	for i, t := range p.sampleTypes {
		if t == [2]string{"cpu", "nanoseconds"} {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("%s: no cpu/nanoseconds sample type", path)
	}
	out := map[string]int64{}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		out[layerOfStack(stack)] += s.values[col]
	}
	return out, nil
}

// memProfile reads the allocation profile as of the last completed GC.
func memProfile() []runtime.MemProfileRecord {
	runtime.GC() // publish every allocation made so far
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var full bool
		n, full = runtime.MemProfile(recs, true)
		if full {
			return recs[:n]
		}
	}
}

// allocsByLayer attributes the allocations made between two profile
// snapshots taken at the given MemProfileRate. At rate 1 every allocation
// is recorded and the counts are exact; at a larger rate each stack's
// sampled count is scaled up the way pprof does.
func allocsByLayer(before, after []runtime.MemProfileRecord, rate int) map[string]int64 {
	type tally struct{ objects, bytes int64 }
	prior := map[[32]uintptr]tally{}
	for _, r := range before {
		t := prior[r.Stack0]
		prior[r.Stack0] = tally{t.objects + r.AllocObjects, t.bytes + r.AllocBytes}
	}
	out := map[string]int64{}
	var funcs []string
	for _, r := range after {
		p := prior[r.Stack0]
		n, size := r.AllocObjects-p.objects, r.AllocBytes-p.bytes
		if n <= 0 {
			continue
		}
		if rate > 1 && size > 0 {
			n = int64(float64(n) / (1 - math.Exp(-float64(size)/float64(n)/float64(rate))))
		}
		funcs = funcs[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		out[layerOfStack(funcs)] += n
	}
	return out
}

// --- a minimal reader for the pprof profile.proto format --------------------

// profile holds the parts of a pprof profile attribution needs.
type profile struct {
	sampleTypes [][2]string // (type, unit)
	samples     []sample
	// locFuncs maps a location id to its function names, innermost first
	// (a location lists the functions inlined into it before their caller).
	locFuncs map[uint64][]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a gzipped (or plain) profile.proto message.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var (
		strs      []string
		typeIdx   [][2]uint64
		locLines  = map[uint64][]uint64{} // location -> function ids
		funcNames = map[uint64]uint64{}   // function id -> name string index
	)
	p := &profile{locFuncs: map[uint64][]string{}}
	err := eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample
			var s sample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
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
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, [2]string{str(t[0]), str(t[1])})
	}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message: v carries varint and
// fixed-width values, b the bytes of length-delimited ones.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
