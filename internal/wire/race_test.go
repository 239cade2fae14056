//go:build race

package wire

// raceEnabled gates the allocation-count assertions: under the race
// detector sync.Pool drops puts at random and append(make) really
// allocates, so the counts say nothing about the code.
const raceEnabled = true
