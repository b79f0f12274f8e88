// Package docstore is an embedded JSON document store — the stand-in for the
// MongoDB/MongoLab database the paper's front-end server used (§3.2). It
// provides named collections of JSON documents with generated ids, CRUD by
// id, and atomic whole-store persistence to a single file. Exactly what
// storing table specifications and collected results needs; nothing more.
package docstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	gosync "sync"
)

// ErrNotFound is returned when a document id does not exist.
var ErrNotFound = errors.New("docstore: document not found")

// Doc is one stored document: its id plus the raw JSON body.
type Doc struct {
	ID   string
	Body json.RawMessage
}

// Decode unmarshals the document body into out.
func (d Doc) Decode(out any) error { return json.Unmarshal(d.Body, out) }

// Store is a collection namespace, optionally persisted to one JSON file.
type Store struct {
	mu    gosync.RWMutex
	path  string
	colls map[string]*collData
}

type collData struct {
	Seq  int64                      `json:"seq"`
	Docs map[string]json.RawMessage `json:"docs"`
}

// Open loads (or initializes) a store. An empty path keeps the store purely
// in memory.
func Open(path string) (*Store, error) {
	s := &Store{path: path, colls: make(map[string]*collData)}
	if path == "" {
		return s, nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("docstore: open: %w", err)
	}
	if err := json.Unmarshal(data, &s.colls); err != nil {
		return nil, fmt.Errorf("docstore: corrupt store file %s: %w", path, err)
	}
	for _, c := range s.colls {
		if c.Docs == nil {
			c.Docs = make(map[string]json.RawMessage)
		}
	}
	return s, nil
}

// Collection returns a handle on the named collection, creating it if new.
func (s *Store) Collection(name string) *Collection {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.colls[name]; !ok {
		s.colls[name] = &collData{Docs: make(map[string]json.RawMessage)}
	}
	return &Collection{store: s, name: name}
}

// flushLocked writes the store to disk atomically (tmp file + rename).
// Callers hold the write lock.
func (s *Store) flushLocked() error {
	if s.path == "" {
		return nil
	}
	data, err := json.MarshalIndent(s.colls, "", " ")
	if err != nil {
		return fmt.Errorf("docstore: marshal: %w", err)
	}
	tmp := s.path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		return fmt.Errorf("docstore: mkdir: %w", err)
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("docstore: write: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("docstore: rename: %w", err)
	}
	return nil
}

// Collection is a handle on one named collection.
type Collection struct {
	store *Store
	name  string
}

func (c *Collection) data() *collData { return c.store.colls[c.name] }

// Insert stores a new document and returns its generated id.
func (c *Collection) Insert(doc any) (string, error) {
	body, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("docstore: marshal doc: %w", err)
	}
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	d := c.data()
	d.Seq++
	id := fmt.Sprintf("%s-%06d", c.name, d.Seq)
	d.Docs[id] = body
	return id, c.store.flushLocked()
}

// Put stores or replaces the document with the given id.
func (c *Collection) Put(id string, doc any) error {
	body, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("docstore: marshal doc: %w", err)
	}
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	c.data().Docs[id] = body
	return c.store.flushLocked()
}

// Get decodes the document with the given id into out.
func (c *Collection) Get(id string, out any) error {
	c.store.mu.RLock()
	body, ok := c.data().Docs[id]
	c.store.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, c.name, id)
	}
	return json.Unmarshal(body, out)
}

// Delete removes the document with the given id.
func (c *Collection) Delete(id string) error {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	d := c.data()
	if _, ok := d.Docs[id]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, c.name, id)
	}
	delete(d.Docs, id)
	return c.store.flushLocked()
}

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.store.mu.RLock()
	defer c.store.mu.RUnlock()
	return len(c.data().Docs)
}

// All returns every document, sorted by id.
func (c *Collection) All() []Doc {
	c.store.mu.RLock()
	defer c.store.mu.RUnlock()
	out := make([]Doc, 0, len(c.data().Docs))
	for id, body := range c.data().Docs {
		out = append(out, Doc{ID: id, Body: append(json.RawMessage(nil), body...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
