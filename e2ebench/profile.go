package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// forEachSample decodes a gzipped pprof CPU profile, as written by
// runtime/pprof, and calls fn for every sample with its stack (function
// names, leaf first, inlined frames expanded) and its CPU time in
// nanoseconds. It reads only the parts of the profile.proto schema the
// attribution needs: samples, locations, functions and the string table.
func forEachSample(gz []byte, fn func(stack []string, cpuNs int64)) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = make(map[uint64]int64)    // function id -> name string index
		locFuncs  = make(map[uint64][]uint64) // location id -> function ids, leaf first
		valueIdx  = -1
		typeNames []int64 // sample_type type-name string indices
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return packed(w, v, bb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(w, v, bb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, t := range typeNames {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return errors.New("profile: no cpu sample type")
	}
	name := func(fid uint64) string {
		if idx, ok := funcName[fid]; ok && idx >= 0 && int(idx) < len(strs) {
			return strs[idx]
		}
		return "?"
	}
	var stack []string
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return errors.New("profile: sample without a cpu value")
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, f := range locFuncs[loc] {
				stack = append(stack, name(f))
			}
		}
		fn(stack, s.values[valueIdx])
	}
	return nil
}

// eachField walks the fields of one protobuf message. For varint fields
// fn receives the value in v; for length-delimited fields, the bytes in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field, packed or not.
func packed(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
