//go:build race

package endpoint

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, so exact allocation counts do not hold.
const raceEnabled = true
