package analysis

import (
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// stdImporter resolves standard-library imports. It prefers the compiler's
// binary export data, located once via `go list -export std` — reading export
// files takes milliseconds where type-checking the stdlib from source takes
// seconds per lint run. The import-path → export-file index is cached on disk
// keyed by the toolchain version (a GOROOT upgrade invalidates it), and any
// failure to build or use the index falls back to the source importer, so the
// loader never gets slower than it was, only faster.
//
// Set CROWDFILL_LINT_STD=source to force the source importer (e.g. to
// diagnose export-data skew after a toolchain change).
type stdImporter struct {
	gc    types.Importer    // export-data importer; nil when unavailable
	src   types.Importer    // source importer fallback
	index map[string]string // import path -> export file
	memo  map[string]*types.Package
}

func newStdImporter(fset *token.FileSet, modRoot string) *stdImporter {
	s := &stdImporter{
		src:  importer.ForCompiler(fset, "source", nil),
		memo: make(map[string]*types.Package),
	}
	if os.Getenv("CROWDFILL_LINT_STD") == "source" {
		return s
	}
	index, err := stdExportIndex(modRoot)
	if err != nil {
		return s
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := index[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	gc := importer.ForCompiler(fset, "gc", lookup)
	// Probe one import before committing: if export data works at all it
	// works for the whole index, and committing per-run (not per-path)
	// keeps every std package in a single type-check universe.
	if _, err := gc.Import("fmt"); err != nil {
		return s
	}
	s.gc, s.index = gc, index
	return s
}

// Import implements types.Importer. Results are memoized so a given path
// always resolves to the same *types.Package within one loader.
func (s *stdImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.memo[path]; ok {
		return p, nil
	}
	if path == "unsafe" {
		return types.Unsafe, nil // built into the type checker; no export data
	}
	var p *types.Package
	var err error
	if s.gc != nil {
		if _, ok := s.index[path]; ok {
			p, err = s.gc.Import(path)
		} else {
			err = fmt.Errorf("analysis: %q not in std export index", path)
		}
	} else {
		p, err = s.src.Import(path)
	}
	if err != nil {
		return nil, err
	}
	s.memo[path] = p
	return p, nil
}

// stdExportCacheFile returns the on-disk location of the export index for
// this toolchain. The key includes runtime.Version() and the GOROOT path, so
// switching toolchains (or moving GOROOT) rebuilds the index instead of
// pointing at stale build-cache entries.
func stdExportCacheFile() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	key := runtime.Version() + "-" + sanitizeKey(runtime.GOROOT())
	return filepath.Join(base, "crowdfill-lint", "stdexport-"+key+".json"), nil
}

func sanitizeKey(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}

// stdExportIndex returns the import-path → export-file map for the standard
// library, from the disk cache when valid, else by asking cmd/go and caching
// the answer. A cached index is revalidated by stat'ing every export file:
// go's build cache trims old entries, and a single missing file means the
// index must be rebuilt.
func stdExportIndex(modRoot string) (map[string]string, error) {
	cacheFile, cerr := stdExportCacheFile()
	if cerr == nil {
		if index := readExportCache(cacheFile); index != nil {
			return index, nil
		}
	}
	index, err := buildStdExportIndex(modRoot)
	if err != nil {
		return nil, err
	}
	if cerr == nil {
		writeExportCache(cacheFile, index)
	}
	return index, nil
}

func readExportCache(file string) map[string]string {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil
	}
	var index map[string]string
	if json.Unmarshal(data, &index) != nil || len(index) == 0 {
		return nil
	}
	for _, f := range index {
		if _, err := os.Stat(f); err != nil {
			return nil
		}
	}
	return index
}

func writeExportCache(file string, index map[string]string) {
	// Best-effort: a failed cache write only costs the next run a `go list`.
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return
	}
	data, err := json.Marshal(index)
	if err != nil {
		return
	}
	tmp := file + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, file)
}

func buildStdExportIndex(modRoot string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-export", "-e",
		"-f", "{{.ImportPath}}\t{{.Export}}", "std")
	cmd.Dir = modRoot
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list -export std: %w", err)
	}
	index := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(line, "\t")
		if !ok || file == "" {
			continue
		}
		index[path] = file
	}
	if len(index) == 0 {
		return nil, fmt.Errorf("analysis: go list -export std produced no export files")
	}
	return index, nil
}
