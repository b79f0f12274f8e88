//go:build !unix

package main

import "errors"

func spinMain() {}

// startSpinners needs setpriority: elsewhere the benchmark does not run.
func startSpinners() (func(), int, error) {
	return nil, 0, errors.New("low-priority spinners need a unix")
}
