//go:build !race

package warehouse

const raceEnabled = false
