//go:build !race

package endpoint

const raceEnabled = false
