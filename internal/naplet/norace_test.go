//go:build !race

package naplet

const raceEnabled = false
