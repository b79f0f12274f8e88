// Package crowd provides the simulated crowd that replaces the paper's human
// Mechanical Turk workers (see DESIGN.md's substitution table): seeded
// ground-truth datasets and per-worker behavior models (knowledge subsets,
// per-column accuracy and think times, voting reliability, spammers). The
// workers exercise exactly the worker-client code path the live system uses.
package crowd

import (
	"fmt"
	"math/rand"
	"sync"

	"crowdfill/internal/model"
)

// Dataset is a ground truth: a schema plus complete, key-unique rows that
// simulated workers partially know. A literal is a valid Dataset; the lookup
// index is built on the first lookup, so Schema and Rows must be final by
// then and a Dataset must not be copied afterwards. Lookups are safe for
// concurrent use: one truth may be shared by simulations running in parallel.
type Dataset struct {
	Schema *model.Schema
	Rows   []model.Vector

	once sync.Once
	ix   *rowIndex
}

// index returns the lookup index over Rows, building it on first use.
func (d *Dataset) index() *rowIndex {
	d.once.Do(func() { d.ix = newRowIndex(d.Schema, d.Rows) })
	return d.ix
}

var firstNames = []string{
	"Lionel", "Diego", "Zico", "Romario", "Rivaldo", "Thierry", "Dennis",
	"Marco", "Paolo", "Andrea", "Xavi", "Andres", "Iker", "Sergio", "David",
	"Steven", "Frank", "Wayne", "Michael", "Gary", "Miroslav", "Bastian",
	"Philipp", "Manuel", "Arjen", "Robin", "Wesley", "Clarence", "Edwin",
	"Patrick", "Didier", "Samuel", "Yaya", "George", "Abedi", "Roger",
	"Hugo", "Carlos", "Javier", "Gabriel",
}

var lastNames = []string{
	"Mesta", "Maradol", "Zicon", "Romaro", "Rivaldez", "Henrique", "Bergkamp",
	"Vanbast", "Maldini", "Pirlo", "Hernandez", "Iniesta", "Casill", "Ramos",
	"Villa", "Gerrard", "Lampard", "Rooney", "Owen", "Lineker", "Klose",
	"Schwein", "Lahm", "Neuer", "Robben", "Persie", "Sneijder", "Seedorf",
	"Sarvan", "Kluivert", "Drogba", "Etoo", "Toure", "Weah", "Pele",
	"Milla", "Sanchez", "Valderr", "Zanetti", "Batista",
}

// nationalities weight the paper's focus countries (Brazil, Spain,
// Argentina, ...) higher so the §2.3 example constraints ("a player from
// Brazil", "a player from Spain") are comfortably satisfiable from worker
// knowledge.
var nationalities = []string{
	"Argentina", "Argentina", "Argentina", "Brazil", "Brazil", "Brazil",
	"Spain", "Spain", "Spain", "England", "England", "Germany", "Germany",
	"Netherlands", "Italy", "France", "Portugal", "Uruguay", "Colombia",
	"Chile", "Mexico", "Cameroon", "Ghana", "Nigeria", "Ivory Coast",
	"Japan", "South Korea", "USA", "Belgium", "Croatia", "Sweden",
	"Denmark", "Poland",
}

var positions = []string{"GK", "DF", "MF", "FW"}

// SoccerSchema returns the paper's §6 experimental schema:
// SoccerPlayer(name, nationality, position, caps, goals, dob) with key
// (name, nationality).
func SoccerSchema() *model.Schema {
	return model.MustSchema("SoccerPlayer", []model.Column{
		{Name: "name", Type: model.TypeString},
		{Name: "nationality", Type: model.TypeString},
		{Name: "position", Type: model.TypeString, Domain: positions},
		{Name: "caps", Type: model.TypeInt},
		{Name: "goals", Type: model.TypeInt},
		{Name: "dob", Type: model.TypeDate},
	}, "name", "nationality")
}

// SoccerPlayers generates n synthetic players with caps in [80, 99] — the
// paper estimates more than 200 real players fall in that range, so n
// defaults well above any collected table size. Deterministic per seed.
func SoccerPlayers(seed int64, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	s := SoccerSchema()
	d := &Dataset{Schema: s}
	seen := make(map[string]bool)
	for len(d.Rows) < n {
		name := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
		nat := nationalities[rng.Intn(len(nationalities))]
		key := name + "|" + nat
		if seen[key] {
			continue
		}
		seen[key] = true
		pos := positions[rng.Intn(len(positions))]
		caps := 80 + rng.Intn(20) // [80, 99] per the paper's task
		goals := rng.Intn(60)
		if pos == "GK" {
			goals = 0
		}
		dob := fmt.Sprintf("%04d-%02d-%02d", 1950+rng.Intn(50), 1+rng.Intn(12), 1+rng.Intn(28))
		d.Rows = append(d.Rows, model.VectorOf(
			name, nat, pos, fmt.Sprint(caps), fmt.Sprint(goals), dob))
	}
	return d
}

// Generic generates a key-unique ground truth for an arbitrary schema
// (used by the varied-workload estimation experiments, §6).
func Generic(seed int64, s *model.Schema, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Schema: s}
	seen := make(map[string]bool)
	for attempt := 0; len(d.Rows) < n && attempt < n*100; attempt++ {
		vec := model.NewVector(s.NumColumns())
		for i, col := range s.Columns {
			vec[i] = model.Cell{Set: true, Val: randomValue(rng, col)}
		}
		k := vec.KeyOf(s)
		if seen[k] {
			continue
		}
		seen[k] = true
		d.Rows = append(d.Rows, vec)
	}
	return d
}

func randomValue(rng *rand.Rand, col model.Column) string {
	if len(col.Domain) > 0 {
		return col.Domain[rng.Intn(len(col.Domain))]
	}
	switch col.Type {
	case model.TypeInt:
		return fmt.Sprint(rng.Intn(1000))
	case model.TypeFloat:
		return fmt.Sprintf("%.2f", rng.Float64()*1000)
	case model.TypeDate:
		return fmt.Sprintf("%04d-%02d-%02d", 1950+rng.Intn(70), 1+rng.Intn(12), 1+rng.Intn(28))
	default:
		return fmt.Sprintf("%s-%s-%d",
			firstNames[rng.Intn(len(firstNames))],
			lastNames[rng.Intn(len(lastNames))],
			rng.Intn(10000))
	}
}

// LookupByKey returns the truth row whose key cells equal v's, or nil when
// there is none or v's key is incomplete. Should a hand-built Dataset repeat
// a key, the first row holding it answers for it.
func (d *Dataset) LookupByKey(v model.Vector) model.Vector { return d.index().lookup(v) }

// Contains reports whether v exactly equals the truth row of its key.
func (d *Dataset) Contains(v model.Vector) bool {
	row := d.index().lookup(v)
	return row != nil && row.Equal(v)
}
