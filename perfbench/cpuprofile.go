package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuBuckets are the packages a traced grid-strategies run splits its CPU
// profile into. A sample goes to gc when any frame on its stack is the
// collector's, else to the innermost frame in one of these tycoongrid
// packages (library code counts for the package that called it), else to
// other.
var cpuBuckets = []string{"sim", "grid", "auction", "agent", "bank", "pki", "predict", "arc", "gc", "other"}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcStart", "runtime.markroot",
}

// cpuShares decodes a pprof CPU profile (gzipped profile.proto) and returns
// each bucket's share of the sampled CPU time and the sample count.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		values    []int64                 // cpu nanoseconds per sample
		valueSlot = 1                     // profile.proto CPU profiles: [samples/count, cpu/nanoseconds]
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = append(locs, packed(v, b)...)
				case 2:
					for _, x := range packed(v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, locs)
			if len(vals) > valueSlot {
				values = append(values, vals[valueSlot])
			} else if len(vals) > 0 {
				values = append(values, vals[0])
			} else {
				values = append(values, 0)
			}
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	name := func(fn uint64) string {
		i := funcName[fn]
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	byBucket := map[string]int64{}
	var total int64
	for i, locs := range samples {
		var frames []string
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				frames = append(frames, name(fn))
			}
		}
		byBucket[bucketOf(frames)] += values[i]
		total += values[i]
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(byBucket[b]) / float64(total)
		}
	}
	return shares, len(samples), nil
}

// bucketOf classifies one stack, innermost frame first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, "tycoongrid/internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, b := range cpuBuckets {
			if b == pkg {
				return b
			}
		}
	}
	return "other"
}

// packed returns a repeated varint field's values, packed or not.
func packed(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return out
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

// fields walks one protobuf message, calling f with each field's number
// and its varint value or, for length-delimited fields, its bytes.
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short protobuf fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short protobuf fixed32")
			}
			msg = msg[4:]
		default:
			return errors.New("unsupported protobuf wire type")
		}
	}
	return nil
}
