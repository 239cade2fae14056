//go:build !race

package overload

const raceEnabled = false
