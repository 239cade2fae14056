//go:build race

package shard

// raceEnabled gates the allocation-count assertions: under the race
// detector the counts say nothing about the code.
const raceEnabled = true
