//go:build !race

package resource

const raceEnabled = false
