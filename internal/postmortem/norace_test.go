//go:build !race

package postmortem_test

const raceEnabled = false
