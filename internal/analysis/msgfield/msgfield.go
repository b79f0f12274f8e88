// Package msgfield turns the "Handle is the executable spec" convention
// into a static exhaustiveness check over the wire-message vocabulary:
//
//  1. Any switch over sync.MsgType written without a default clause claims
//     to handle every message kind, and is flagged when a declared MsgType
//     constant is missing from its cases — so adding MsgX to internal/sync
//     breaks the build of every dispatcher that silently ignores it
//     (MsgType.String, Replica.Apply's kind tables, client dispatch). A
//     switch that intentionally handles a subset marks that by carrying a
//     default clause (possibly empty).
//  2. Cross-package: every message type a HandleBroadcast method (the
//     server core's) accepts from clients lands in the stored trace, so it
//     must also be accepted by replay.Rebuild's switch — otherwise the
//     bookkeeping trace (paper §3.3) stops being replayable and
//     crowdfill-replay/Audit break. The contract is checked after all
//     packages are analyzed.
package msgfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"crowdfill/internal/analysis"
)

// syncPkgPath is the package defining the message vocabulary.
const syncPkgPath = "crowdfill/internal/sync"

// New returns the msgfield analyzer. The returned instance accumulates
// cross-package facts; use a fresh instance per lint run.
func New() *analysis.Analyzer {
	st := &state{}
	return &analysis.Analyzer{
		Name: "msgfield",
		Doc: "exhaustiveness of sync.MsgType dispatch: no-default switches must " +
			"cover every declared message kind, and every client-accepted type in " +
			"Core.HandleBroadcast must be replayable by replay.Rebuild",
		Run:    st.run,
		Finish: st.finish,
	}
}

type state struct {
	// accepted is the set of MsgType constant names Core.HandleBroadcast
	// admits from clients; acceptedPos anchors contract findings.
	accepted    map[string]bool
	acceptedPos token.Pos
	// rebuild is the set replay.Rebuild replays.
	rebuild map[string]bool
}

func (st *state) run(pass *analysis.Pass) error {
	msgType := findMsgType(pass)
	if msgType == nil {
		return nil // package does not see the message vocabulary
	}
	all := declaredConstants(msgType)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				tv, ok := pass.TypesInfo.Types[sw.Tag]
				if !ok || !types.Identical(tv.Type, msgType) {
					return true
				}
				cases, hasDefault := switchCases(pass, sw)
				if !hasDefault {
					var missing []string
					for _, c := range all {
						if !cases[c] {
							missing = append(missing, c)
						}
					}
					if len(missing) > 0 {
						pass.Reportf(sw.Pos(), "switch over sync.MsgType without a default clause is missing %s; handle the new kinds or add a (possibly empty) default to mark intentional partial dispatch",
							strings.Join(missing, ", "))
					}
				}
				st.record(pass, fd, sw, cases)
				return true
			})
		}
	}
	return nil
}

// record captures the case sets of the two contract endpoints.
func (st *state) record(pass *analysis.Pass, fd *ast.FuncDecl, sw *ast.SwitchStmt, cases map[string]bool) {
	switch {
	case fd.Name.Name == "HandleBroadcast" && fd.Recv != nil:
		if st.accepted == nil {
			st.accepted = make(map[string]bool)
			st.acceptedPos = sw.Pos()
		}
		for c := range cases {
			st.accepted[c] = true
		}
	case fd.Name.Name == "Rebuild" && fd.Recv == nil:
		if st.rebuild == nil {
			st.rebuild = make(map[string]bool)
		}
		for c := range cases {
			st.rebuild[c] = true
		}
	}
}

func (st *state) finish(report func(analysis.Diagnostic)) {
	if st.accepted == nil || st.rebuild == nil {
		return // one endpoint not in this run; nothing to compare
	}
	var missing []string
	for c := range st.accepted {
		if !st.rebuild[c] {
			missing = append(missing, c)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	report(analysis.Diagnostic{
		Pos: st.acceptedPos,
		Message: "client-accepted message types " + strings.Join(missing, ", ") +
			" are not handled by replay.Rebuild; the stored trace would no longer replay (add the cases to Rebuild)",
	})
}

// switchCases resolves the MsgType constant names listed in the switch's
// case clauses and whether a default clause exists.
func switchCases(pass *analysis.Pass, sw *ast.SwitchStmt) (map[string]bool, bool) {
	cases := make(map[string]bool)
	hasDefault := false
	for _, cc := range sw.Body.List {
		cl, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cl.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cl.List {
			var id *ast.Ident
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			}
			if id == nil {
				continue
			}
			if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok {
				cases[c.Name()] = true
			}
		}
	}
	return cases, hasDefault
}

// findMsgType locates the sync.MsgType named type visible to this package
// (the package itself or any of its direct imports).
func findMsgType(pass *analysis.Pass) types.Type {
	lookup := func(p *types.Package) types.Type {
		if p.Path() != syncPkgPath {
			return nil
		}
		if obj, ok := p.Scope().Lookup("MsgType").(*types.TypeName); ok {
			return obj.Type()
		}
		return nil
	}
	if t := lookup(pass.Pkg); t != nil {
		return t
	}
	for _, imp := range pass.Pkg.Imports() {
		if t := lookup(imp); t != nil {
			return t
		}
	}
	return nil
}

// declaredConstants returns the sorted names of every constant of the
// MsgType type declared in its defining package.
func declaredConstants(msgType types.Type) []string {
	named, ok := msgType.(*types.Named)
	if !ok {
		return nil
	}
	scope := named.Obj().Pkg().Scope()
	var names []string
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), msgType) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
