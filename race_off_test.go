//go:build !race

package ndsm_test

const raceEnabled = false
