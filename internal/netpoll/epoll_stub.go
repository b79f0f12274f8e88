//go:build !linux

package netpoll

import "syscall"

const osSupported = false

// osPoller has no kernel backend off Linux; New fails with ErrUnsupported
// before any of these run, and servers fall back to blocking reads. The
// stubs exist so the portable core compiles everywhere (the CI cross-build
// leg keeps this path honest).
type osPoller struct{}

func (p *Poller) osInit() error                              { return ErrUnsupported }
func (p *Poller) osAdd(rc syscall.RawConn, tok uint64) error { return ErrUnsupported }
func (p *Poller) osArm(rc syscall.RawConn, tok uint64) error { return ErrUnsupported }
func (p *Poller) osDel(rc syscall.RawConn)                   {}
func (p *Poller) osWake()                                    {}
func (p *Poller) osDestroy()                                 {}

func (p *Poller) wait() { p.waiter.Done() }
