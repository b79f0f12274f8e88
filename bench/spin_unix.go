//go:build unix

package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// spinMain is the body of a spinner child (`bench -spin`): drop to the
// lowest priority, report ready, and spin until the parent closes our stdin
// (or dies, which closes it too).
func spinMain() {
	runtime.GOMAXPROCS(2) // one P spins, one serves the stdin watcher
	// Linux keeps a nice value per thread: the spinning goroutine must stay
	// on the thread that was niced.
	runtime.LockOSThread()
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		fmt.Fprintln(os.Stderr, "spinner: setpriority:", err)
		os.Exit(3)
	}
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // returns when the parent lets go
		os.Exit(0)
	}()
	fmt.Println("ready")
	for {
	}
}

// startSpinners keeps the CPUs from halting for the length of the run: one
// nice-19 busy loop per CPU, in child processes of this binary. In a VM,
// waking a halted vCPU from another CPU costs tens of microseconds of
// hypervisor time that varies with host load; on the 1-in-flight workloads
// that is a third of the latency and most of its run-to-run noise, and none
// of it is the program's. A nice-19 task yields to any normal wake-up at
// once and is pulled to whichever CPU would otherwise go idle. stop ends the
// children and waits for them.
func startSpinners() (stop func(), n int, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
	}
	var children []child
	stop = func() {
		for _, c := range children {
			c.stdin.Close()
		}
		for _, c := range children {
			_ = c.cmd.Wait() // exit status is of no interest
		}
	}
	for range runtime.NumCPU() {
		cmd := exec.Command(exe, "-spin")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			stop()
			return nil, 0, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			stop()
			return nil, 0, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, 0, err
		}
		children = append(children, child{cmd, stdin})
		ready := make(chan error, 1) // the reader's single verdict
		go func() {
			line, err := bufio.NewReader(stdout).ReadString('\n')
			if err == nil && line != "ready\n" {
				err = fmt.Errorf("spinner said %q", line)
			}
			ready <- err
		}()
		select {
		case err = <-ready:
		case <-time.After(5 * time.Second):
			err = errors.New("spinner did not come up")
		}
		if err != nil {
			stop()
			return nil, 0, err
		}
	}
	return stop, len(children), nil
}
