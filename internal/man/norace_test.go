//go:build !race

package man

const raceEnabled = false
