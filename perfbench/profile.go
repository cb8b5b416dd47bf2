package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The CPU profile is folded without external tools: runtime/pprof writes a
// gzipped profile.proto, and only five of its messages matter here.
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (packed), 2 value (packed)
//	Location: 1 id, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name (string index)

// foldProfile adds the CPU nanoseconds of every sample in a gzipped pprof
// CPU profile to into, keyed by host layer.
func foldProfile(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		samples  [][]byte
		strs     []string
		funcName = map[uint64]int64{}    // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, leaf first
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	name := func(fn uint64) string {
		if i, ok := funcName[fn]; ok && i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	var frames []string
	for _, s := range samples {
		var locs, vals []uint64
		if err := walkSample(s, &locs, &vals); err != nil {
			return err
		}
		if len(vals) < 2 {
			return errors.New("profile: CPU sample without a nanoseconds value")
		}
		frames = frames[:0]
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				frames = append(frames, name(fn))
			}
		}
		into[foldStack(frames)] += int64(vals[1])
	}
	return nil
}

// walkSample decodes a Sample's location ids and values, packed or not.
func walkSample(b []byte, locs, vals *[]uint64) error {
	return walk(b, func(f int, v uint64, packed []byte) error {
		var dst *[]uint64
		switch f {
		case 1:
			dst = locs
		case 2:
			dst = vals
		default:
			return nil
		}
		if packed == nil {
			*dst = append(*dst, v)
			return nil
		}
		for len(packed) > 0 {
			x, n := binary.Uvarint(packed)
			if n <= 0 {
				return errors.New("profile: bad packed varint")
			}
			*dst = append(*dst, x)
			packed = packed[n:]
		}
		return nil
	})
}

// walk calls f for each field of a protobuf message: v holds varint values,
// b holds length-delimited payloads (nil for varints). Fixed-width fields
// are skipped.
func walk(msg []byte, f func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := f(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
