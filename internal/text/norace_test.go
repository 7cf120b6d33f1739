//go:build !race

package text

const raceEnabled = false
