//go:build !race

package sync

const raceEnabled = false
