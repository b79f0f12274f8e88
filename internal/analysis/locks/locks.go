// Package locks guards the module's lock discipline (DESIGN.md §8, §13) with
// the policy written on the mutexes themselves. Two directives, in a mutex
// field's doc or line comment, are the whole policy:
//
//	//lint:nonblocking       nothing that may block runs while this lock is held
//	//lint:before A.mu B.mu  this lock may be held while A.mu or B.mu is taken
//
// A before entry names a mutex field as Owner.field, declared in the
// directive's package or in anything it imports. One memoized module-wide
// pass over the call graph's summaries (internal/analysis/callgraph) checks
// five rules:
//
//	(a) no blocking event — a channel operation, a select without default,
//	    transport I/O, time.Sleep, WaitGroup.Wait, JSON encoding, a logf
//	    call — runs under a nonblocking lock, directly or through any chain
//	    of callees, callees that take locks of their own included;
//	(b) no lock is acquired while it is already held;
//	(c) every nesting — a lock acquired, directly or through a callee, while
//	    another is held — is declared by a before entry on the outer lock;
//	(d) the declared before relation is acyclic;
//	(e) every before entry is exercised by some nesting.
//
// (c) makes every observed nesting a declared one and (d) makes the
// declared order acyclic, so the observed order is acyclic too: no
// lock-order deadlock can enter the code without first being written into
// the directives as a cycle. sync.Cond.Wait is exempt from (a) — it
// releases the lock while parked. Goroutine launches and function literals
// are not call edges, and deferred calls run at return, so none of them
// count as running under the locks held where they appear.
package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"crowdfill/internal/analysis"
	"crowdfill/internal/analysis/callgraph"
)

const (
	nonblockingDirective = "//lint:nonblocking"
	beforeDirective      = "//lint:before"
)

// New returns the locks analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "locks",
		Doc: "lock discipline from directives on the mutex fields: nothing that " +
			"blocks (directly or through any callee) under a //lint:nonblocking " +
			"lock, no self-reentry, every nesting declared by //lint:before on " +
			"the outer lock, an acyclic declared order, and no stale before entry",
		Run: analysis.ModuleRun("locks.findings", compute),
	}
}

// policy is the directives on one mutex field.
type policy struct {
	name        string // "NetServer.mu"
	nonblocking bool
	before      []*entry
}

// entry is one lock named by a //lint:before directive.
type entry struct {
	name    string
	pos     token.Pos // the directive
	pkgPath string    // the directive's package
	keys    []string  // the mutex fields name resolves to
	used    bool      // some nesting exercised the entry
}

type checker struct {
	graph    *callgraph.Graph
	policies map[string]*policy // lock key → directives
	order    []string           // policy keys in source order
	recs     []analysis.Finding
}

func compute(shared *analysis.Shared) []analysis.Finding {
	c := &checker{
		graph:    callgraph.Get(shared),
		policies: make(map[string]*policy),
	}
	for _, pkg := range shared.Packages {
		c.collect(pkg)
	}
	for _, pkg := range shared.Packages {
		for _, n := range c.graph.PkgNodes(pkg.Path) {
			for _, ev := range n.Events {
				c.event(n.PkgPath, ev)
			}
		}
	}
	c.checkDeclared()
	return c.recs
}

func (c *checker) report(pkgPath string, pos token.Pos, format string, args ...any) {
	c.recs = append(c.recs, analysis.Finding{PkgPath: pkgPath, Diagnostic: analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)}})
}

// collect reads the directives on every mutex field of pkg's package-level
// struct types. A nonblocking or before directive anywhere else is
// reported: it would guard nothing.
func (c *checker) collect(pkg *analysis.Package) {
	consumed := make(map[*ast.Comment]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if st, ok := ts.Type.(*ast.StructType); ok {
					c.collectStruct(pkg, ts.Name.Name, st, consumed)
				}
			}
		}
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if !consumed[cm] && (isDirective(cm.Text, nonblockingDirective) || isDirective(cm.Text, beforeDirective)) {
					c.report(pkg.Path, cm.Pos(), "%s is not on a mutex field: it guards nothing", strings.Fields(cm.Text)[0])
				}
			}
		}
	}
}

// collectStruct records the policy of each mutex field of struct type owner.
func (c *checker) collectStruct(pkg *analysis.Package, owner string, st *ast.StructType, consumed map[*ast.Comment]bool) {
	for _, fld := range st.Fields.List {
		if tv, ok := pkg.TypesInfo.Types[fld.Type]; !ok || !callgraph.IsMutex(tv.Type) {
			continue
		}
		for _, id := range fld.Names {
			p := &policy{name: owner + "." + id.Name}
			for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
				if cg != nil {
					for _, cm := range cg.List {
						consumed[cm] = c.parse(pkg, p, cm)
					}
				}
			}
			if p.nonblocking || len(p.before) > 0 {
				key := callgraph.LockKey(pkg.Path, owner, id.Name)
				c.policies[key] = p
				c.order = append(c.order, key)
			}
		}
	}
}

// parse applies one comment line of a mutex field to its policy and reports
// whether it was a lock directive.
func (c *checker) parse(pkg *analysis.Package, p *policy, cm *ast.Comment) bool {
	switch {
	case isDirective(cm.Text, nonblockingDirective):
		p.nonblocking = true
	case isDirective(cm.Text, beforeDirective):
		for _, name := range strings.Fields(strings.TrimPrefix(cm.Text, beforeDirective)) {
			if strings.HasPrefix(name, "//") {
				break // a comment about the directive
			}
			p.before = append(p.before, &entry{name: name, pos: cm.Pos(), pkgPath: pkg.Path, keys: resolve(pkg.Types, name)})
		}
	default:
		return false
	}
	return true
}

func isDirective(text, directive string) bool {
	rest, ok := strings.CutPrefix(text, directive)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

// resolve returns the lock keys an Owner.field name denotes: mutex fields so
// named of struct types declared in pkg or anything it imports, directly or
// not.
func resolve(pkg *types.Package, name string) []string {
	owner, field, ok := strings.Cut(name, ".")
	if !ok {
		return nil
	}
	var keys []string
	seen := map[*types.Package]bool{pkg: true}
	for queue := []*types.Package{pkg}; len(queue) > 0; queue = queue[1:] {
		p := queue[0]
		if tn, ok := p.Scope().Lookup(owner).(*types.TypeName); ok {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Name() == field && callgraph.IsMutex(f.Type()) {
						keys = append(keys, callgraph.LockKey(p.Path(), owner, field))
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	return keys
}

// event checks one scanner event against the locks held at it.
func (c *checker) event(pkgPath string, ev callgraph.Event) {
	if ev.Deferred || len(ev.Held) == 0 {
		return // deferred calls run at return, after the unlocks they follow
	}
	switch ev.Kind {
	case callgraph.KBlock:
		c.blocking(pkgPath, ev, ev.What)
	case callgraph.KAcquire:
		if msg := c.nest(ev.Held, ev.Lock, nil); msg != "" {
			c.report(pkgPath, ev.Pos, "%s", msg)
		}
	case callgraph.KCall:
		// Every callee acquisition is checked — so each nesting marks its
		// before entry used — but a call site reports at most one of them.
		first, blocks := "", ""
		for _, ck := range ev.Callees {
			callee := c.graph.Nodes[ck]
			if callee == nil {
				continue
			}
			for _, acq := range callgraph.SortedAcquires(&callee.Sum) {
				if msg := c.nest(ev.Held, acq.Lock, append([]string{callee.Display}, acq.Via...)); first == "" {
					first = msg
				}
			}
			if callee.Sum.Blocks && blocks == "" {
				blocks = "call to " + ev.Display + " blocks — " + callee.Sum.BlockWhat + viaSuffix(callee.Sum.BlockVia)
			}
		}
		if first != "" {
			c.report(pkgPath, ev.Pos, "%s", first)
		}
		if blocks != "" {
			c.blocking(pkgPath, ev, blocks)
		}
	}
}

// blocking reports what (rule a) against the innermost nonblocking lock
// held at ev, if any.
func (c *checker) blocking(pkgPath string, ev callgraph.Event, what string) {
	for i := len(ev.Held) - 1; i >= 0; i-- {
		if p := c.policies[ev.Held[i].Key]; p != nil && p.nonblocking {
			c.report(pkgPath, ev.Pos, "%s inside a %s critical section, which is //lint:nonblocking", what, ev.Held[i].Name)
			return
		}
	}
}

// nest checks acquiring lk while held (rules b and c), marking the before
// entries it exercises, and returns the first violation ("" if none). via is
// the call chain to the acquisition, nil for a literal Lock call.
func (c *checker) nest(held []callgraph.Lock, lk callgraph.Lock, via []string) string {
	if lk.Key == "" {
		return ""
	}
	what := "acquiring " + lk.Name
	if via != nil {
		what = "call acquires " + lk.Name
	}
	msg := ""
	for _, h := range held {
		if h.Key == "" {
			continue
		}
		if h.Key == lk.Key {
			if msg == "" {
				msg = fmt.Sprintf("%s while a %s critical section is open (self-deadlock)%s", what, h.Name, viaSuffix(via))
			}
			continue
		}
		if !c.declared(h.Key, lk.Key) && msg == "" {
			msg = fmt.Sprintf("lock ordering: acquiring %s while holding %s%s; declare //lint:before %s on %s or release it first",
				lk.Name, h.Name, viaSuffix(via), lk.Name, h.Name)
		}
	}
	return msg
}

// declared reports whether outer's before entries name inner, marking the
// entry used.
func (c *checker) declared(outer, inner string) bool {
	p := c.policies[outer]
	if p == nil {
		return false
	}
	for _, e := range p.before {
		for _, k := range e.keys {
			if k == inner {
				e.used = true
				return true
			}
		}
	}
	return false
}

// checkDeclared reports before entries that name no mutex, entries no
// nesting exercised (rule e) and entries that close a cycle in the declared
// order (rule d). Staleness is judged only for entries whose lock's package
// has functions in this run: a lock the run cannot see taken cannot be seen
// nested.
func (c *checker) checkDeclared() {
	for _, k := range c.order {
		p := c.policies[k]
		for _, e := range p.before {
			switch {
			case len(e.keys) == 0:
				c.report(e.pkgPath, e.pos, "//lint:before names %s, which is no mutex field of this package or its imports", e.name)
			case !e.used && len(c.graph.PkgNodes(strings.SplitN(e.keys[0], ":", 2)[0])) > 0:
				c.report(e.pkgPath, e.pos, "stale //lint:before entry: nothing acquires %s while holding %s", e.name, p.name)
			}
		}
	}

	// An entry outer → inner closes a cycle when inner's declared order
	// leads back to outer; every entry on a cycle is reported.
	for _, k := range c.order {
		for _, e := range c.policies[k].before {
			for _, to := range e.keys {
				if path := c.chain(to, k, make(map[string]bool)); path != nil {
					c.report(e.pkgPath, e.pos, "//lint:before cycle: %s → %s; the declared lock order must be acyclic",
						c.policies[k].name, strings.Join(path, " → "))
				}
			}
		}
	}
}

// chain returns the lock names along declared before entries from from to
// to, both included, or nil when to is not reachable.
func (c *checker) chain(from, to string, seen map[string]bool) []string {
	if from == to {
		return []string{c.policies[to].name}
	}
	p := c.policies[from]
	if p == nil || seen[from] {
		return nil
	}
	seen[from] = true
	for _, e := range p.before {
		for _, k := range e.keys {
			if rest := c.chain(k, to, seen); rest != nil {
				return append([]string{p.name}, rest...)
			}
		}
	}
	return nil
}

func viaSuffix(via []string) string {
	if len(via) == 0 {
		return ""
	}
	return " (via " + strings.Join(via, " → ") + ")"
}
