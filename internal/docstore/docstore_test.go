package docstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

type widget struct {
	Name  string  `json:"name"`
	Price float64 `json:"price"`
	Tag   string  `json:"tag,omitempty"`
}

func TestInsertGetDelete(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("widgets")
	id, err := c.Insert(widget{Name: "bolt", Price: 1.5})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	var got widget
	if err := c.Get(id, &got); err != nil || got.Name != "bolt" || got.Price != 1.5 {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if err := c.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := c.Get(id, &got); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	if err := c.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestPutOverwrites(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("w")
	if err := c.Put("fixed", widget{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("fixed", widget{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	var got widget
	if err := c.Get("fixed", &got); err != nil || got.Name != "b" {
		t.Fatalf("Put overwrite failed: %+v %v", got, err)
	}
}

func TestIDsUniqueAndSorted(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("w")
	var ids []string
	for i := 0; i < 20; i++ {
		id, err := c.Insert(widget{Name: "x"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	all := c.All()
	if len(all) != 20 {
		t.Fatalf("All = %d docs", len(all))
	}
	for i := range all {
		if all[i].ID != ids[i] {
			t.Fatalf("All order: got %s at %d, want %s", all[i].ID, i, ids[i])
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "store.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("w")
	id, err := c.Insert(widget{Name: "bolt", Price: 2})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var got widget
	if err := s2.Collection("w").Get(id, &got); err != nil || got.Name != "bolt" {
		t.Fatalf("reopened Get = %+v, %v", got, err)
	}
	// New inserts after reopen must not collide with existing ids.
	id2, err := s2.Collection("w").Insert(widget{Name: "nut"})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("id collision after reopen")
	}
}

func TestOpenCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatalf("corrupt store should fail to open")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestInsertUnmarshalableFails(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("w")
	if _, err := c.Insert(make(chan int)); err == nil {
		t.Fatalf("unmarshalable doc should fail")
	}
	if err := c.Put("x", make(chan int)); err == nil {
		t.Fatalf("unmarshalable Put should fail")
	}
}

// TestPropertyInsertedAlwaysFindable: quick-check that any stored string
// document reads back by its id and is listed by All under that id.
func TestPropertyInsertedAlwaysFindable(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("w")
	f := func(name string) bool {
		id, err := c.Insert(map[string]string{"name": name})
		if err != nil {
			return false
		}
		var got map[string]string
		if err := c.Get(id, &got); err != nil || got["name"] != name {
			return false
		}
		for _, d := range c.All() {
			var m map[string]string
			if d.ID == id && d.Decode(&m) == nil && m["name"] == name {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
