//go:build race

package transport_test

// raceEnabled gates the allocation-count assertions: under the race
// detector sync.Pool drops puts at random and the instrumentation
// allocates, so the counts say nothing about the code.
const raceEnabled = true
