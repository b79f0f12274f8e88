// Package g exercises the call-graph builder directly: per-function
// summaries (blocking with via chains, transitive lock acquisition),
// interface resolution to module implementers, and the held-lock snapshot at
// a call site that nests a callee's acquisition.
package g

import "sync"

type logT struct {
	mu   sync.Mutex
	head uint64
}

type srvT struct {
	mu  sync.Mutex
	log *logT
	ch  chan int
}

func (l *logT) acquireLeaf() {
	l.mu.Lock()
	l.head++
	l.mu.Unlock()
}

func (l *logT) wrap() { l.acquireLeaf() }

func (s *srvT) blockLeaf() { s.ch <- 1 }

func (s *srvT) blockWrap() { s.blockLeaf() }

type pinger interface{ Ping() }

type impl struct{}

func (impl) Ping() {}

func callIface(v pinger) { v.Ping() }

// orderSite nests logT.mu under srvT.mu through two calls: one nesting with
// a via chain.
func (s *srvT) orderSite() {
	s.mu.Lock()
	s.log.wrap()
	s.mu.Unlock()
}
