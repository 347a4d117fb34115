package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes a Go CPU profile (runtime/pprof's gzipped
// profile.proto) to the simulator's layers. It decodes only the fields it
// needs — samples, locations, functions and the string table — so the
// benchmark stays on the standard library.

// layerOf maps a stack (leaf first) to the layer that owns the sample:
// garbage collection and allocation wherever they appear on the stack,
// otherwise the innermost frame that belongs to the program's own code
// (a standard-library leaf such as sort.Strings or runtime.memmove is
// charged to the module that called it), otherwise "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		if mallocFrame(fn) {
			return "malloc"
		}
	}
	for _, fn := range stack {
		if l, ok := moduleOf(fn); ok {
			return l
		}
	}
	return "other"
}

func gcFrame(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcAssistAlloc1",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.markroot", "runtime.gcDrain",
		"runtime.sweepone", "runtime.wbBufFlush", "runtime.wbBufFlush1":
		return true
	}
	return false
}

func mallocFrame(fn string) bool {
	switch fn {
	case "runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.rawstring",
		"runtime.rawstringtmp", "runtime.concatstrings", "runtime.slicebytetostring":
		return true
	}
	return false
}

// moduleOf names the program module a function belongs to:
// "syrup/internal/apps/rocksdb.(*Store).Scan" → "rocksdb",
// "syrup/internal/sim.(*Engine).fire" → "sim", the root package → "syrup".
func moduleOf(fn string) (string, bool) {
	const internal = "syrup/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := strings.TrimPrefix(fn, internal)
		rest = strings.TrimPrefix(rest, "apps/")
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], true
		}
		return rest, true
	case strings.HasPrefix(fn, "syrup."):
		return "syrup", true
	}
	return "", false
}

// attribute adds each sample's CPU nanoseconds to its layer in into.
func attribute(prof []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	valueIdx := int(p.sampleTypes) - 1 // cpu nanoseconds follow the sample count
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		into[layerOf(stack)] += float64(s.values[valueIdx])
	}
	return nil
}

type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes int64
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id → function ids, innermost first
	funcNames   map[uint64]int64    // function id → string table index
	strings     []string
}

type pbuf struct {
	b []byte
}

var errTruncated = errors.New("profile: truncated message")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one tag and returns its number, wire type, the varint value
// (wire type 0) or the payload (wire type 2).
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	tag, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(tag>>3), int(tag&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", wire)
	}
	return num, wire, v, data, err
}

// uints appends a repeated integer field in either packed or plain form.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	b := pbuf{raw}
	for len(b.b) > 0 {
		num, _, _, data, err := b.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			s, err := decodeSample(data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			if err := p.decodeLocation(data); err != nil {
				return nil, err
			}
		case 5: // function
			if err := p.decodeFunction(data); err != nil {
				return nil, err
			}
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
	}
	for id, name := range p.funcNames {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

func decodeSample(data []byte) (sample, error) {
	var s sample
	q := pbuf{data}
	for len(q.b) > 0 {
		num, wire, v, d, err := q.field()
		if err != nil {
			return s, err
		}
		switch num {
		case 1:
			if s.locs, err = uints(s.locs, wire, v, d); err != nil {
				return s, err
			}
		case 2:
			var vals []uint64
			if vals, err = uints(nil, wire, v, d); err != nil {
				return s, err
			}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
		}
	}
	return s, nil
}

func (p *profile) decodeLocation(data []byte) error {
	var id uint64
	var funcs []uint64
	q := pbuf{data}
	for len(q.b) > 0 {
		num, _, v, d, err := q.field()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			id = v
		case 4: // line
			l := pbuf{d}
			for len(l.b) > 0 {
				n, _, lv, _, err := l.field()
				if err != nil {
					return err
				}
				if n == 1 {
					funcs = append(funcs, lv)
				}
			}
		}
	}
	p.locFuncs[id] = funcs
	return nil
}

func (p *profile) decodeFunction(data []byte) error {
	var id uint64
	var name int64
	q := pbuf{data}
	for len(q.b) > 0 {
		num, _, v, _, err := q.field()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	p.funcNames[id] = name
	return nil
}
