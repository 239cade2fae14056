//go:build !race

package itinerary

const raceEnabled = false
