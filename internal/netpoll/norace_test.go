//go:build !race

package netpoll

const raceEnabled = false
