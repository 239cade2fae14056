package allocledger

import (
	"runtime"
	"testing"
)

var sink []*[64]byte

// TestChargesTheTestFrame: allocations made in a _test.go file land on the
// "test" line, each one counted, and the lines never exceed the mallocs.
func TestChargesTheTestFrame(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	const n = 1000
	sink = make([]*[64]byte, n)
	reading := Start()
	for i := range sink {
		sink[i] = new([64]byte)
	}
	lines, mallocs := reading.Lines()
	var sum int64
	for _, v := range lines {
		sum += v
	}
	if lines["test"] < n || lines["test"] > n+10 || uint64(sum) > mallocs {
		t.Fatalf("test line %d for %d allocations; lines sum to %d of %d mallocs: %v", lines["test"], n, sum, mallocs, lines)
	}
}
