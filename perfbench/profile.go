package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file folds a CPU profile (the gzipped profile.proto that
// runtime/pprof and /debug/pprof/profile write) into self-time shares per
// layer of this repository. It decodes only the fields it needs: samples
// (location ids, values), locations (lines → function ids), functions
// (name index) and the string table.

// cpuLayers are the layers a sample's self time is charged to, in report
// order. Every sample lands in exactly one, so the shares sum to 1.
var cpuLayers = []string{
	"lowerbound", "core", "machine", "vmachine", "shmem", "moveplan",
	"explore", "llsc", "linz", "campaign", "jobs", "obs",
	"runtime.gc", "runtime.sched", "runtime.other", "stdlib", "other",
}

// repoLayers maps a package under internal/ to its layer; packages not
// listed (universal, objtype, wakeup, sweep, …) count as "other". The
// Blelloch–Wei backend is an llsc.Backend, so it is charged to llsc.
var repoLayers = map[string]string{
	"lowerbound": "lowerbound", "core": "core", "machine": "machine",
	"vmachine": "vmachine", "shmem": "shmem", "moveplan": "moveplan",
	"explore": "explore", "llsc": "llsc", "algos/bwllsc": "llsc",
	"linz": "linz", "campaign": "campaign", "jobs": "jobs", "obs": "obs",
}

// schedFrames mark runtime time spent handing the CPU between goroutines:
// the goroutine engine's channel handshakes park and ready a goroutine
// per simulated step.
var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.chansend": true, "runtime.chanrecv": true, "runtime.selectgo": true,
	"runtime.mcall": true, "runtime.gosched_m": true, "runtime.goschedImpl": true,
	"runtime.stopm": true, "runtime.startm": true, "runtime.wakep": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.futexsleep": true,
	"runtime.futexwakeup": true, "runtime.semacquire1": true, "runtime.semrelease1": true,
	"runtime.goexit0": true, "runtime.newproc": true,
}

// isGCFrame reports whether a runtime frame belongs to the garbage
// collector (marking, sweeping, scavenging, assists).
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.(*gcWork)", "runtime.(*mheap).reclaim"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// packageOf returns the import path of a function symbol such as
// "jayanti98/internal/core.(*run).step" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// layerOf charges one sample (stack leaf first) to a layer.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	pkg := packageOf(stack[0])
	if isRuntimePkg(pkg) {
		for _, fn := range stack {
			if isGCFrame(fn) {
				return "runtime.gc"
			}
		}
		for _, fn := range stack {
			if schedFrames[fn] {
				return "runtime.sched"
			}
		}
		return "runtime.other"
	}
	if rest, ok := strings.CutPrefix(pkg, "jayanti98/internal/"); ok {
		if l, ok := repoLayers[rest]; ok {
			return l
		}
		return "other"
	}
	if !strings.Contains(pkg, ".") && !strings.HasPrefix(pkg, "jayanti98") && pkg != "main" {
		return "stdlib" // standard-library import paths have no dot in the first element
	}
	return "other"
}

// cpuShares folds a gzipped CPU profile into each layer's share of the
// sampled CPU time, and logs the functions with the most self time.
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	valueIdx := p.sampleTypes - 1 // cpu nanoseconds is the last value
	if valueIdx < 0 {
		return nil, errors.New("profile has no sample types")
	}
	byLayer := make(map[string]float64, len(cpuLayers))
	byLeaf := make(map[string]float64) // "<layer> <leaf function>" → self time, for the top-functions log
	total := 0.0
	var stack []string
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, lid := range s.locs {
			for _, fid := range p.locFuncs[lid] {
				stack = append(stack, p.funcName[fid])
			}
		}
		v := float64(s.values[valueIdx])
		layer := layerOf(stack)
		byLayer[layer] += v
		if len(stack) > 0 {
			byLeaf[layer+" "+stack[0]] += v
		}
		total += v
	}
	top := make([]string, 0, len(byLeaf))
	for leaf := range byLeaf {
		top = append(top, leaf)
	}
	sort.Slice(top, func(i, j int) bool { return byLeaf[top[i]] > byLeaf[top[j]] })
	for _, leaf := range top[:min(len(top), 12)] {
		logf("cpu %5.1f%%  %s", 100*byLeaf[leaf]/total, leaf)
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = byLayer[l] / total
		} else {
			shares[l] = 0
		}
	}
	return shares, nil
}

// foldShares stores each layer's CPU share of profile gz in m as
// "<layer>.cpu_share" ("runtime.gc" becomes "runtime.gc_cpu_share").
func foldShares(gz []byte, m map[string]float64) error {
	shares, err := cpuShares(gz)
	if err != nil {
		return err
	}
	for layer, share := range shares {
		if rest, ok := strings.CutPrefix(layer, "runtime."); ok {
			m["runtime."+rest+"_cpu_share"] = share
		} else {
			m[layer+".cpu_share"] = share
		}
	}
	return nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes int
	samples     []profSample
	locFuncs    map[uint64][]uint64 // location id → function ids, innermost first
	funcName    map[uint64]string
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s profSample
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
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fids
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx < uint64(len(strs)) {
			p.funcName[id] = strs[idx]
		}
	}
	return p, nil
}

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited ones b holds the
// payload.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (wire 0) or packed (wire 2).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
