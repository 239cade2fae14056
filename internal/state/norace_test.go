//go:build !race

package state

const raceEnabled = false
