package docstore_test

import (
	"fmt"

	"crowdfill/internal/docstore"
)

// Example stores a table-specification document the way the front-end
// server does, updates its status in place, then lists the collection.
func Example() {
	store, _ := docstore.Open("") // in-memory; pass a path to persist
	specs := store.Collection("specs")

	id, _ := specs.Insert(map[string]any{"name": "SoccerPlayer", "status": "draft"})
	specs.Insert(map[string]any{"name": "Gadget", "status": "draft"})

	var spec map[string]any
	specs.Get(id, &spec)
	spec["status"] = "running"
	specs.Put(id, spec)

	for _, d := range specs.All() {
		var got map[string]any
		d.Decode(&got)
		fmt.Println(d.ID, got["name"], got["status"])
	}
	// Output:
	// specs-000001 SoccerPlayer running
	// specs-000002 Gadget draft
}
