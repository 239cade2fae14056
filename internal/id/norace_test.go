//go:build !race

package id

const raceEnabled = false
