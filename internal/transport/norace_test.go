//go:build !race

package transport_test

const raceEnabled = false
