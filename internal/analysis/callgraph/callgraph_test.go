package callgraph_test

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"crowdfill/internal/analysis"
	"crowdfill/internal/analysis/callgraph"
)

// loadG builds the call graph over testdata/src/g.
func loadG(t *testing.T) *callgraph.Graph {
	t.Helper()
	_, file, _, _ := runtime.Caller(0)
	dir := filepath.Join(filepath.Dir(file), "testdata", "src", "g")
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "g")
	if err != nil {
		t.Fatal(err)
	}
	return callgraph.Get(analysis.NewShared([]*analysis.Package{pkg}))
}

func node(t *testing.T, g *callgraph.Graph, key string) *callgraph.Node {
	t.Helper()
	n := g.Nodes[key]
	if n == nil {
		t.Fatalf("node %s missing from graph", key)
	}
	return n
}

func TestBlockingSummaryWithViaChain(t *testing.T) {
	g := loadG(t)
	leaf := node(t, g, "g.srvT.blockLeaf")
	if !leaf.Sum.Blocks || leaf.Sum.BlockWhat != "channel send" {
		t.Errorf("blockLeaf summary = %+v, want Blocks with \"channel send\"", leaf.Sum)
	}
	if len(leaf.Sum.BlockVia) != 0 {
		t.Errorf("blockLeaf BlockVia = %v, want direct (empty)", leaf.Sum.BlockVia)
	}
	wrap := node(t, g, "g.srvT.blockWrap")
	if !wrap.Sum.Blocks || wrap.Sum.BlockWhat != "channel send" {
		t.Errorf("blockWrap summary = %+v, want transitive channel send", wrap.Sum)
	}
	if want := []string{"srvT.blockLeaf"}; !reflect.DeepEqual(wrap.Sum.BlockVia, want) {
		t.Errorf("blockWrap BlockVia = %v, want %v", wrap.Sum.BlockVia, want)
	}
}

func TestTransitiveAcquires(t *testing.T) {
	g := loadG(t)
	leaf := node(t, g, "g.logT.acquireLeaf")
	acq, ok := leaf.Sum.Acquires["g:logT.mu"]
	if !ok {
		t.Fatalf("acquireLeaf does not record g:logT.mu; acquires = %v", leaf.Sum.Acquires)
	}
	if acq.Lock.Name != "logT.mu" || len(acq.Via) != 0 {
		t.Errorf("acquireLeaf acq = %+v, want direct logT.mu", acq)
	}
	wrap := node(t, g, "g.logT.wrap")
	acq, ok = wrap.Sum.Acquires["g:logT.mu"]
	if !ok {
		t.Fatalf("wrap does not inherit g:logT.mu; acquires = %v", wrap.Sum.Acquires)
	}
	if want := []string{"logT.acquireLeaf"}; !reflect.DeepEqual(acq.Via, want) {
		t.Errorf("wrap acq via = %v, want %v", acq.Via, want)
	}
}

func TestInterfaceResolution(t *testing.T) {
	g := loadG(t)
	n := node(t, g, "g.callIface")
	var callees []string
	for _, ev := range n.Events {
		if ev.Kind == callgraph.KCall {
			callees = append(callees, ev.Callees...)
		}
	}
	if want := []string{"g.impl.Ping"}; !reflect.DeepEqual(callees, want) {
		t.Errorf("callIface callees = %v, want %v", callees, want)
	}
}

// TestOrderEdgeWithViaChain checks the graph carries everything a nesting
// finding is assembled from: the call site in srvT.orderSite holds srvT.mu,
// and its callee's summary reaches logT.mu through logT.acquireLeaf, so the
// full chain below the site is logT.wrap → logT.acquireLeaf.
func TestOrderEdgeWithViaChain(t *testing.T) {
	g := loadG(t)
	n := node(t, g, "g.srvT.orderSite")
	for _, ev := range n.Events {
		if ev.Kind != callgraph.KCall || ev.Display != "logT.wrap" {
			continue
		}
		if len(ev.Held) != 1 || ev.Held[0].Key != "g:srvT.mu" {
			t.Errorf("held at orderSite's call = %+v, want [g:srvT.mu]", ev.Held)
		}
		if want := []string{"g.logT.wrap"}; !reflect.DeepEqual(ev.Callees, want) {
			t.Fatalf("orderSite callees = %v, want %v", ev.Callees, want)
		}
		acq, ok := node(t, g, ev.Callees[0]).Sum.Acquires["g:logT.mu"]
		if !ok {
			t.Fatal("logT.wrap's summary does not acquire g:logT.mu")
		}
		via := append([]string{ev.Display}, acq.Via...)
		if want := []string{"logT.wrap", "logT.acquireLeaf"}; !reflect.DeepEqual(via, want) {
			t.Errorf("nesting via = %v, want %v", via, want)
		}
		return
	}
	t.Fatalf("no call to logT.wrap in srvT.orderSite; events = %+v", n.Events)
}
