// Package allocledger splits the allocations a stretch of code makes by the
// repro/internal package that makes them, for tests that bound each
// package's share of a warm path: a failure then names the package that
// grew. It reads the heap profile, so the caller sets runtime.MemProfileRate
// to 1 before the code it measures first runs, and every allocation the
// profile can see is a record of its own.
package allocledger

import (
	"runtime"
	"runtime/metrics"
	"strings"
)

// A Reading holds the allocation counters and heap profile taken at the
// start of a measured stretch.
type Reading struct {
	mallocs, tiny uint64
	sample        []metrics.Sample
	before, after []runtime.MemProfileRecord
}

// Start takes the first reading. It runs a GC: a profile is published by a
// finished GC cycle.
func Start() *Reading {
	r := &Reading{
		sample: []metrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}},
		before: make([]runtime.MemProfileRecord, 0, 1<<14),
		after:  make([]runtime.MemProfileRecord, 0, 1<<14),
	}
	runtime.GC()
	r.mallocs, r.tiny = r.counters()
	r.before = memProfile(r.before)
	return r
}

// Lines ends the stretch. It charges each allocation made since Start to
// the first repro/internal package on its stack: "test" for a frame in a
// _test.go file, "other" for a stack without one. A "tiny" line counts the
// allocations the runtime packs into shared 16-byte blocks — short strings,
// mostly — and profiles only where one starts a block; runtime/metrics
// counts them. With it the lines account for mallocs, MemStats.Mallocs
// over the stretch (50.65 of 50.65 per hop in server's tour ledger).
func (r *Reading) Lines() (lines map[string]int64, mallocs uint64) {
	runtime.GC()
	mallocs, tiny := r.counters()
	r.after = memProfile(r.after)

	// A stack has a record per allocation size: sum them, then take the
	// difference stack by stack.
	objects := make(map[[32]uintptr]int64, len(r.after))
	for _, rec := range r.after {
		objects[rec.Stack0] += rec.AllocObjects
	}
	for _, rec := range r.before {
		objects[rec.Stack0] -= rec.AllocObjects
	}
	lines = map[string]int64{"tiny": int64(tiny - r.tiny)}
	for stack, n := range objects {
		if n > 0 {
			depth := 0
			for depth < len(stack) && stack[depth] != 0 {
				depth++
			}
			lines[line(stack[:depth])] += n
		}
	}
	return lines, mallocs - r.mallocs
}

func (r *Reading) counters() (mallocs, tiny uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(r.sample)
	return ms.Mallocs, r.sample[0].Value.Uint64()
}

// memProfile reads the whole heap profile into buf.
func memProfile(buf []runtime.MemProfileRecord) []runtime.MemProfileRecord {
	for {
		n, ok := runtime.MemProfile(buf[:cap(buf)], true)
		if ok {
			return buf[:n]
		}
		buf = make([]runtime.MemProfileRecord, 0, n+n/4)
	}
}

// line names the package an allocation at stack is charged to.
func line(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if rest, ok := strings.CutPrefix(f.Function, "repro/internal/"); ok {
			if strings.HasSuffix(f.File, "_test.go") {
				return "test"
			}
			pkg, _, _ := strings.Cut(rest, ".")
			return pkg
		}
		if !more {
			return "other"
		}
	}
}
