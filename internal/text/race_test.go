//go:build race

package text

// raceEnabled: the race detector's sync.Pool drops a quarter of its Puts,
// so allocation counts through a pool are not the program's.
const raceEnabled = true
