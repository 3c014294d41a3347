// Package profile decodes the CPU profiles runtime/pprof writes, using the
// standard library only: a gzip reader and a minimal protocol-buffer
// reader for the profile's sample types, samples, locations, functions
// and string table. Everything else in the format (mappings, labels,
// comments) is skipped. Every reference between those tables is checked,
// so a truncated or corrupted profile is an error rather than a profile
// with holes in it.
package profile

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// maxProfileBytes bounds the decompressed size, so a corrupted or hostile
// gzip stream cannot make the reader allocate without limit.
const maxProfileBytes = 256 << 20

// Sample is one profile sample.
type Sample struct {
	// Value is the sample's CPU time in nanoseconds when the profile has a
	// "cpu"/"nanoseconds" sample type, else the first sample value.
	Value int64
	// Stack holds the function names of the sample's call stack, leaf
	// first. Inlined calls appear as frames of their own.
	Stack []string
}

// ErrMalformed is wrapped by every decoding error.
var ErrMalformed = errors.New("profile: malformed profile")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// Parse decodes a profile's samples from the profile, gzip-compressed
// (as runtime/pprof writes it) or raw.
func Parse(data []byte) ([]Sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, malformed("gzip: %v", err)
		}
		raw, err := io.ReadAll(io.LimitReader(zr, maxProfileBytes+1))
		if err != nil {
			return nil, malformed("gzip: %v", err)
		}
		if len(raw) > maxProfileBytes {
			return nil, malformed("decompressed profile exceeds %d bytes", maxProfileBytes)
		}
		data = raw
	}
	return parseRaw(data)
}

// Wire types of the protocol-buffer encoding.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// field is one decoded protocol-buffer field: num and wire type, the
// scalar value for varint and fixed-width fields, the payload for
// length-delimited ones.
type field struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// fields iterates over the fields of one message.
func fields(b []byte, fn func(f field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return malformed("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		if f.num == 0 {
			return malformed("field number 0")
		}
		switch f.wire {
		case wireVarint:
			v, n := uvarint(b)
			if n <= 0 {
				return malformed("truncated varint in field %d", f.num)
			}
			f.val, b = v, b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return malformed("truncated fixed64 in field %d", f.num)
			}
			for i := 7; i >= 0; i-- {
				f.val = f.val<<8 | uint64(b[i])
			}
			b = b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return malformed("truncated fixed32 in field %d", f.num)
			}
			for i := 3; i >= 0; i-- {
				f.val = f.val<<8 | uint64(b[i])
			}
			b = b[4:]
		case wireBytes:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return malformed("truncated length-delimited field %d", f.num)
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return malformed("unsupported wire type %d in field %d", f.wire, f.num)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a base-128 varint; n <= 0 reports truncation or
// overflow.
func uvarint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		c := b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, -1
			}
			return v, i + 1
		}
	}
	return 0, -1
}

// ints appends the integers of a repeated integer field, which encoders
// may write packed (one length-delimited run) or one field per value.
func ints(dst []uint64, f field) ([]uint64, error) {
	switch f.wire {
	case wireVarint:
		return append(dst, f.val), nil
	case wireBytes:
		b := f.data
		for len(b) > 0 {
			v, n := uvarint(b)
			if n <= 0 {
				return nil, malformed("truncated packed varint in field %d", f.num)
			}
			dst, b = append(dst, v), b[n:]
		}
		return dst, nil
	}
	return nil, malformed("field %d: wire type %d, want an integer", f.num, f.wire)
}

// scalar returns a varint field's value.
func scalar(f field) (uint64, error) {
	if f.wire != wireVarint {
		return 0, malformed("field %d: wire type %d, want varint", f.num, f.wire)
	}
	return f.val, nil
}

// message returns a length-delimited field's payload.
func message(f field) ([]byte, error) {
	if f.wire != wireBytes {
		return nil, malformed("field %d: wire type %d, want length-delimited", f.num, f.wire)
	}
	return f.data, nil
}

// Field numbers of perftools.profiles.Profile and its sub-messages.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	valueTypeType = 1
	valueTypeUnit = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

type rawSample struct {
	locs   []uint64
	values []uint64
}

type valueType struct{ typ, unit uint64 }

func parseRaw(data []byte) ([]Sample, error) {
	var (
		types     []valueType
		samples   []rawSample
		strs      []string
		locations = map[uint64][]uint64{} // location id -> function ids, leaf first
		functions = map[uint64]uint64{}   // function id -> name string index
	)
	err := fields(data, func(f field) error {
		switch f.num {
		case profSampleType:
			b, err := message(f)
			if err != nil {
				return err
			}
			var vt valueType
			err = fields(b, func(g field) error {
				var err error
				switch g.num {
				case valueTypeType:
					vt.typ, err = scalar(g)
				case valueTypeUnit:
					vt.unit, err = scalar(g)
				}
				return err
			})
			types = append(types, vt)
			return err
		case profSample:
			b, err := message(f)
			if err != nil {
				return err
			}
			var s rawSample
			err = fields(b, func(g field) error {
				var err error
				switch g.num {
				case sampleLocationID:
					s.locs, err = ints(s.locs, g)
				case sampleValue:
					s.values, err = ints(s.values, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case profLocation:
			b, err := message(f)
			if err != nil {
				return err
			}
			var id uint64
			var funcs []uint64
			err = fields(b, func(g field) error {
				switch g.num {
				case locationID:
					var err error
					id, err = scalar(g)
					return err
				case locationLine:
					lb, err := message(g)
					if err != nil {
						return err
					}
					return fields(lb, func(h field) error {
						if h.num != lineFunction {
							return nil
						}
						fid, err := scalar(h)
						funcs = append(funcs, fid)
						return err
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			if id == 0 {
				return malformed("location without an id")
			}
			if _, dup := locations[id]; dup {
				return malformed("duplicate location id %d", id)
			}
			locations[id] = funcs
			return nil
		case profFunction:
			b, err := message(f)
			if err != nil {
				return err
			}
			var id, name uint64
			err = fields(b, func(g field) error {
				var err error
				switch g.num {
				case functionID:
					id, err = scalar(g)
				case functionName:
					name, err = scalar(g)
				}
				return err
			})
			if err != nil {
				return err
			}
			if id == 0 {
				return malformed("function without an id")
			}
			if _, dup := functions[id]; dup {
				return malformed("duplicate function id %d", id)
			}
			functions[id] = name
			return nil
		case profStringTable:
			b, err := message(f)
			if err != nil {
				return err
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(strs) == 0 || strs[0] != "" {
		return nil, malformed("string table must start with the empty string")
	}
	if len(types) == 0 {
		return nil, malformed("no sample types")
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", malformed("string index %d out of range", i)
		}
		return strs[i], nil
	}
	valueIdx := 0
	for i, vt := range types {
		typ, err := str(vt.typ)
		if err != nil {
			return nil, err
		}
		unit, err := str(vt.unit)
		if err != nil {
			return nil, err
		}
		if typ == "cpu" && unit == "nanoseconds" {
			valueIdx = i
		}
	}
	names := make(map[uint64]string, len(functions))
	for id, si := range functions {
		s, err := str(si)
		if err != nil {
			return nil, err
		}
		names[id] = s
	}
	out := make([]Sample, 0, len(samples))
	for _, rs := range samples {
		if len(rs.values) != len(types) {
			return nil, malformed("sample has %d values for %d sample types", len(rs.values), len(types))
		}
		s := Sample{Value: int64(rs.values[valueIdx])}
		for _, lid := range rs.locs {
			funcs, ok := locations[lid]
			if !ok {
				return nil, malformed("sample references unknown location %d", lid)
			}
			for _, fid := range funcs {
				name, ok := names[fid]
				if !ok {
					return nil, malformed("location %d references unknown function %d", lid, fid)
				}
				s.Stack = append(s.Stack, name)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// PackageOf returns the import path of the package that defines the
// function with the given symbol name: "repro/internal/sim" for
// "repro/internal/sim.(*System).Run", "runtime" for "runtime.mallocgc".
func PackageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
