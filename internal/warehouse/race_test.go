//go:build race

package warehouse

// raceEnabled: under the race detector allocation counts are not the
// program's (sync.Pool drops a quarter of its Puts).
const raceEnabled = true
