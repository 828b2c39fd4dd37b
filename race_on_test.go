//go:build race

package ndsm_test

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, so allocation counts of pooled paths vary from run to run.
const raceEnabled = true
