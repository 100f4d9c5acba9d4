package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repo packages CPU samples are attributed to. A package
// not listed here (obs, contention, seq) is charged to the nearest
// listed caller.
var layers = []string{
	"sim", "mem", "cache", "machine", "tm", "core", "btm", "ustm", "hytm", "phtm",
	"norec", "tl2", "unbounded", "cm", "txlib", "stamp", "oltp", "txstats", "harness",
}

// Buckets for samples with no frame in any layer: the collector's own
// workers, the goroutine scheduler running on a thread's system stack
// (park, wake and handoff carry no caller frame there — mostly sim's
// token handoff, partly the calibration kernel's own channel traffic),
// and everything else.
const (
	layerGC    = "runtime.gc"
	layerSched = "runtime.sched"
	layerOther = "other"
)

// fallbackLayers lists those buckets in reporting order.
var fallbackLayers = []string{layerGC, layerSched, layerOther}

// allBuckets returns every name a sample can be attributed to.
func allBuckets() []string {
	return append(append([]string{}, layers...), fallbackLayers...)
}

// profile is the part of a pprof CPU profile the attribution needs.
type profile struct {
	samples []profSample
}

// profSample is one stack, innermost function first, and its weight.
type profSample struct {
	stack []string
	value int64
}

// protoFields calls f for every field of the protobuf message b: varint
// and fixed-width fields arrive in v, length-delimited ones in data.
func protoFields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = uvarint(b); n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints reads a repeated integer field in either encoding:
// one value per field (data nil) or packed into data.
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			return nil, errors.New("truncated packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// decodeProfile reads a gzipped profile.proto as runtime/pprof writes
// it: sample -> location -> (inlined) lines -> function -> name.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs     []string
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
	)
	err = protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := protoFields(data, func(num int, v uint64, d []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, v, d)
				case 2:
					s.values, err = repeatedVarints(s.values, v, d)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined call
					return protoFields(d, func(num int, v uint64, _ []byte) error {
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
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: int64(s.values[len(s.values)-1])} // cpu/nanoseconds
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("function %d names string %d of %d", fn, idx, len(strs))
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// layerOf attributes one stack (innermost first). A sample belongs to
// the innermost frame in a listed repo layer, so runtime work done on a
// layer's behalf — allocation and zeroing under ustm.newOTable, the
// futex under sim's handoff — is charged to that layer. Stacks with no
// such frame are the collector's own workers, the scheduler, or other.
// Samples of the benchmark's calibration kernel are not the simulator's
// and return "".
func layerOf(stack []string) string {
	layer := ""
	gc, sched := false, false
	for _, fn := range stack {
		if strings.Contains(fn, ".calibKernel") {
			return ""
		}
		if layer == "" {
			if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 && isLayer(rest[:i]) {
					layer = rest[:i]
				}
			}
		}
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			gc = true
		case "runtime.mcall", "runtime.schedule", "runtime.mstart":
			sched = true
		}
	}
	switch {
	case layer != "":
		return layer
	case gc:
		return layerGC
	case sched:
		return layerSched
	}
	return layerOther
}

func isLayer(pkg string) bool {
	for _, l := range layers {
		if l == pkg {
			return true
		}
	}
	return false
}

// layerShares returns each bucket's share of the attributed samples;
// every layer and every fallback bucket is present and they sum to 1
// (all zero for an empty profile).
func layerShares(p *profile) map[string]float64 {
	shares := map[string]float64{}
	for _, l := range allBuckets() {
		shares[l] = 0
	}
	total := 0.0
	for _, s := range p.samples {
		if l := layerOf(s.stack); l != "" {
			shares[l] += float64(s.value)
			total += float64(s.value)
		}
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares
}
