// Package h exercises the hotalloc analyzer: //lint:hotpath roots must be
// transitively allocation-free apart from //lint:allow hotalloc sites and
// pruned call edges; dynamic calls cannot be proven free and are reported.
package h

// appendByte is the amortized hot append shape: growing a slice the caller
// owns is O(1) amortized and not an allocation event.
//
//lint:hotpath
func appendByte(dst []byte, b byte) []byte {
	dst = append(dst, b)
	return dst
}

// frameAppends assembles a frame into a reused buffer: two self-growth
// appends are amortized, but the inner append of a nested pair grows a slice
// nothing owns, so it is reported — write it as two statements.
//
//lint:hotpath
func frameAppends(buf, hdr, payload []byte) []byte {
	buf = buf[:0]
	buf = append(buf, hdr...)
	buf = append(buf, payload...)
	return append(append(buf, hdr...), payload...) // want `hot-path allocation: append into a fresh slice in //lint:hotpath function frameAppends`
}

// directAlloc allocates right inside the annotated root.
//
//lint:hotpath
func directAlloc(n int) []byte {
	return make([]byte, n) // want `hot-path allocation: make in //lint:hotpath function directAlloc`
}

// deepRoot reaches an allocation two module calls down: the finding names
// the root and the via chain.
//
//lint:hotpath
func deepRoot(dst []byte) []byte {
	return level1(dst)
}

func level1(dst []byte) []byte { return level2(dst) }

func level2(dst []byte) []byte {
	counts := map[int]int{} // want `hot-path allocation: map literal in level2 \(reachable from //lint:hotpath deepRoot via level1 → level2\)`
	counts[len(dst)]++
	return dst
}

// excusedAlloc documents a cold branch on the hot path: the site allow
// suppresses the finding and is consumed (not stale).
//
//lint:hotpath
func excusedAlloc(cold bool) []byte {
	if cold {
		return make([]byte, 64) //lint:allow hotalloc cold branch, taken once at startup
	}
	return nil
}

// withDebug prunes a call edge: the allow on the call site excuses
// dumpState's whole subtree.
//
//lint:hotpath
func withDebug(dst []byte, debug bool) []byte {
	if debug {
		dumpState() //lint:allow hotalloc debug-only dump, off the configured hot path
	}
	return dst
}

// dumpState allocates, but is only reachable through the pruned edge.
func dumpState() {
	_ = make([]int, 8)
}

// dispatch calls through a function value: unresolvable, reported as such.
//
//lint:hotpath
func dispatch(f func()) {
	f() // want `hot-path dynamic call through f cannot be proven allocation-free in //lint:hotpath function dispatch`
}

func sink(v any) { _ = v }

// boxesArg boxes an integer into an interface argument.
//
//lint:hotpath
func boxesArg(v int) {
	sink(v) // want `hot-path allocation: interface boxing of argument in //lint:hotpath function boxesArg`
}

// closureAlloc builds a closure on the hot path: one allocation.
//
//lint:hotpath
func closureAlloc(xs []int) func() int {
	return func() int { return len(xs) } // want `hot-path allocation: closure \(function literal\) in //lint:hotpath function closureAlloc`
}

// lookupKey reads a map and compares through string(b): the compiler elides
// both copies, so neither is an allocation.
//
//lint:hotpath
func lookupKey(m map[string]int, b []byte) bool {
	return m[string(b)] > 0 && string(b) != "skip"
}

// storeKey writes the element: the map keeps the key, so the conversion is a
// real copy — as is one that merely sits next to a map.
//
//lint:hotpath
func storeKey(m map[string]int, b []byte) {
	m[string(b)] = 1     // want `hot-path allocation: \[\]byte→string conversion in //lint:hotpath function storeKey`
	m[string(b)]++       // want `hot-path allocation: \[\]byte→string conversion in //lint:hotpath function storeKey`
	delete(m, string(b)) // want `hot-path allocation: \[\]byte→string conversion in //lint:hotpath function storeKey`
}

// switchKey switches on string(b) over constant cases: the compiler compares
// the bytes in place. A case that is not a constant forfeits that.
//
//lint:hotpath
func switchKey(b []byte, other string) int {
	switch string(b) {
	case "type":
		return 1
	case "row", "vec":
		return 2
	}
	switch string(b) { // want `hot-path allocation: \[\]byte→string conversion in //lint:hotpath function switchKey`
	case other:
		return 3
	}
	return 0
}

// coldPath is not annotated and not hot-reachable: allocations are fine.
func coldPath() []int {
	return make([]int, 4)
}
