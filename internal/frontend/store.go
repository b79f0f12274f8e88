package frontend

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// A collection's records are JSON files in its own directory, <dir>/<id>/:
// spec.json from creation, log.json and result.json once it is done.
const (
	specFile   = "spec.json"
	resultFile = "result.json"
	logFile    = "log.json"
)

func specID(n int) string { return fmt.Sprintf("specs-%06d", n) }

// specNumber returns n for the id specID(n) and false for any other string,
// so no request names a path outside the store.
func specNumber(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "specs-"))
	return n, err == nil && n > 0 && specID(n) == id
}

// writeRecord stores v as the file name in dir so that a crash leaves the
// old file or the new one, never a part: it writes a temp file, syncs it,
// renames it over name and syncs the directory. Writers hold Frontend.mu,
// so no two share the temp file.
func writeRecord(dir, name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode %s: %w", name, err)
	}
	tmp := filepath.Join(dir, name+".tmp")
	fh, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = fh.Write(data)
	if err := errors.Join(err, fh.Sync(), fh.Close()); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir makes a rename or a new entry in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// readRecord decodes the file name in dir into v.
func readRecord(dir, name string, v any) error {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decode %s: %w", filepath.Join(filepath.Base(dir), name), err)
	}
	return nil
}

// specIDs returns the ids of the store's collection directories in order,
// deleted specs' included.
func specIDs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	var ids []string
	for _, e := range entries {
		if _, ok := specNumber(e.Name()); ok && e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	return ids, err
}

func (f *Frontend) collDir(id string) string { return filepath.Join(f.dir, id) }

// readSpec reads spec id. An id no spec has reads as an error that is
// fs.ErrNotExist.
func (f *Frontend) readSpec(id string) (specDoc, error) {
	var sd specDoc
	err := fs.ErrNotExist
	if _, ok := specNumber(id); ok {
		err = readRecord(f.collDir(id), specFile, &sd)
	}
	if errors.Is(err, fs.ErrNotExist) {
		err = fmt.Errorf("no spec %q: %w", id, fs.ErrNotExist)
	}
	return sd, err
}

func (f *Frontend) writeSpec(id string, sd specDoc) error {
	return writeRecord(f.collDir(id), specFile, sd)
}

// createSpec stores sd under the next spec id. No id is handed out twice: a
// deleted spec keeps its empty directory, and New numbers on from the
// highest directory. The caller holds f.mu.
func (f *Frontend) createSpec(sd specDoc) (string, error) {
	f.lastID++
	id := specID(f.lastID)
	if err := os.Mkdir(f.collDir(id), 0o755); err != nil {
		return "", err
	}
	if err := syncDir(f.dir); err != nil {
		return "", err
	}
	return id, f.writeSpec(id, sd)
}

// deleteSpec removes spec id's records, the spec first: once it is gone,
// so is the spec. The caller holds f.mu.
func (f *Frontend) deleteSpec(id string) error {
	dir := f.collDir(id)
	for _, name := range []string{specFile, resultFile, logFile} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return syncDir(dir)
}
