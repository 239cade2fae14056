//go:build !race

package messenger

const raceEnabled = false
