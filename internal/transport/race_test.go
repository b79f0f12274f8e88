//go:build race

package transport

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// quarter of its Puts on purpose, so allocation pins on a pooled path are
// skipped there.
const raceEnabled = true
