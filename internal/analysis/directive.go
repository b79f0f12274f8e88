package analysis

import (
	"go/ast"
	"go/token"
	"os"
	"strconv"
	"strings"
)

// Allow is one parsed //lint:allow directive: an explicit, justified
// suppression of a single analyzer on a single line. A directive at the end
// of a code line covers that line; a directive on its own line covers the
// next line.
type Allow struct {
	Analyzer      string
	Justification string
	Pos           token.Pos
	// File and Line identify the line the directive covers.
	File string
	Line int
	// Used is set when the directive suppressed at least one diagnostic.
	Used bool
}

const allowPrefix = "//lint:allow"

// CollectAllows parses every //lint:allow directive in the files.
func CollectAllows(fset *token.FileSet, files []*ast.File) []*Allow {
	var allows []*Allow
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				a := &Allow{Pos: c.Pos()}
				if len(fields) > 0 {
					a.Analyzer = fields[0]
					just := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
					// A nested "//" starts a comment about the directive
					// (e.g. analysistest want patterns), not justification.
					if i := strings.Index(just, "//"); i >= 0 {
						just = strings.TrimSpace(just[:i])
					}
					a.Justification = just
				}
				pos := fset.Position(c.Pos())
				a.File = pos.Filename
				a.Line = pos.Line
				if onOwnLine(pos) {
					a.Line++ // a standalone directive covers the next line
				}
				allows = append(allows, a)
			}
		}
	}
	return allows
}

// onOwnLine reports whether the directive at pos is the first thing on its
// source line (nothing but whitespace before it), by re-reading the file.
func onOwnLine(pos token.Position) bool {
	data, err := os.ReadFile(pos.Filename)
	if err != nil {
		return pos.Column == 1
	}
	// Offset of the line start: walk back from the comment offset.
	start := pos.Offset
	for start > 0 && data[start-1] != '\n' {
		start--
	}
	for _, b := range data[start:pos.Offset] {
		if b != ' ' && b != '\t' {
			return false
		}
	}
	return true
}

// Filter applies the allow directives for one analyzer to its diagnostics:
// suppressed findings are dropped (and their directive marked used), and the
// returned extras hold directive-hygiene findings — a stale allow (no
// finding under it) and an allow with no justification are themselves
// reported, so suppressions cannot rot silently. Directives naming other
// analyzers are left for their own Filter calls.
func Filter(fset *token.FileSet, allows []*Allow, analyzer string, diags []Diagnostic) (kept, extras []Diagnostic) {
	mine := make(map[string][]*Allow) // "file:line" -> directives
	for _, a := range allows {
		if a.Analyzer == analyzer {
			mine[lineKey(a.File, a.Line)] = append(mine[lineKey(a.File, a.Line)], a)
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if list := mine[lineKey(pos.Filename, pos.Line)]; len(list) > 0 {
			for _, a := range list {
				a.Used = true
			}
			continue
		}
		kept = append(kept, d)
	}
	for _, a := range allows {
		if a.Analyzer != analyzer {
			continue
		}
		if !a.Used {
			extras = append(extras, Diagnostic{Pos: a.Pos, Message: "stale //lint:allow " + analyzer + " directive: no " + analyzer + " finding on the covered line"})
			continue
		}
		if a.Justification == "" {
			extras = append(extras, Diagnostic{Pos: a.Pos, Message: "//lint:allow " + analyzer + " needs a justification after the analyzer name"})
		}
	}
	return kept, extras
}

// directiveWords is the //lint: vocabulary: allow (suppressions),
// nonblocking and before (the locks policy on mutex fields). Any other word
// is a typo that would silently switch a rule off.
var directiveWords = map[string]bool{"allow": true, "nonblocking": true, "before": true}

// CheckDirectives reports the //lint: comments the suite would otherwise
// ignore: an unknown directive word, and an allow naming no analyzer in
// analyzers (a misspelt or retired analyzer suppresses nothing).
func CheckDirectives(fset *token.FileSet, files []*ast.File, analyzers map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				word, args := rest, ""
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					word, args = rest[:i], rest[i:]
				}
				if !directiveWords[word] {
					out = append(out, Diagnostic{Pos: c.Pos(), Message: "unknown directive //lint:" + word})
					continue
				}
				if fields := strings.Fields(args); word == "allow" && (len(fields) == 0 || !analyzers[fields[0]]) {
					out = append(out, Diagnostic{Pos: c.Pos(), Message: "//lint:allow names no analyzer of this suite"})
				}
			}
		}
	}
	return out
}

func lineKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}
