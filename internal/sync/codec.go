// Hand-rolled wire codec for Message: an append-based encoder and an
// allocation-conscious scanner decoder that are byte-for-byte and
// behavior-for-behavior compatible with the encoding/json forms the system
// has always spoken (json.Marshal with HTML escaping; json.Unmarshal with
// case-folded field matching). The stored traces, the committed fuzz corpora
// and every deployed client depend on the exact bytes, so compatibility is
// the contract here — proven by TestCodecWireByteIdentity and the
// FuzzCodecDifferential target, which cross-check every path against the
// encoding/json reference implementations kept in codec_test.go.
//
// Why hand-rolled: encoding/json costs ~30-50 heap allocations per message
// (reflection machinery, intermediate field buffers, the decoder's state).
// AppendMessage allocates nothing beyond growing dst, and DecodeMessageInto
// allocates only what the decoded message itself retains (its strings, each
// vector once at its exact length, an estimate's struct and figures once) —
// never scratch, never scanner state — which is what lets the transport
// layer decode straight out of a leased read buffer. A link's read side decodes through a DecodeCache,
// which also serves the short strings and the whole vectors that link keeps
// repeating, and owns the storage its estimates decode into: a vote on a
// value the link has already decoded allocates nothing, and neither does an
// estimate after the link's first.
package sync

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"crowdfill/internal/model"
)

// --- Encoder ---------------------------------------------------------------

// AppendMessage appends the JSON encoding of m to dst and returns the
// extended slice. The bytes are identical to json.Marshal(m). Float fields
// (Estimates) must be finite; EncodeMessage performs that check and is the
// error-returning entry point.
//
//lint:hotpath
func AppendMessage(dst []byte, m Message) []byte {
	dst = append(dst, `{"type":`...)
	dst = strconv.AppendInt(dst, int64(m.Type), 10)
	if m.Row != "" {
		dst = append(dst, `,"row":`...)
		dst = appendJSONString(dst, string(m.Row))
	}
	if m.NewRow != "" {
		dst = append(dst, `,"newRow":`...)
		dst = appendJSONString(dst, string(m.NewRow))
	}
	if len(m.Vec) > 0 {
		dst = append(dst, `,"vec":`...)
		dst = appendVector(dst, m.Vec)
	}
	if m.Origin != "" {
		dst = append(dst, `,"origin":`...)
		dst = appendJSONString(dst, m.Origin)
	}
	if m.Worker != "" {
		dst = append(dst, `,"worker":`...)
		dst = appendJSONString(dst, m.Worker)
	}
	if m.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendInt(dst, m.Seq, 10)
	}
	if m.TS != 0 {
		dst = append(dst, `,"ts":`...)
		dst = strconv.AppendInt(dst, m.TS, 10)
	}
	if m.Auto {
		dst = append(dst, `,"auto":true`...)
	}
	if m.Col != 0 {
		dst = append(dst, `,"col":`...)
		dst = strconv.AppendInt(dst, int64(m.Col), 10)
	}
	if m.Val != "" {
		dst = append(dst, `,"val":`...)
		dst = appendJSONString(dst, m.Val)
	}
	if m.Snapshot != nil {
		dst = append(dst, `,"snapshot":`...)
		dst = appendSnapshot(dst, m.Snapshot) //lint:allow hotalloc snapshot records are join-time private messages, not steady-state broadcasts
	}
	if m.Estimates != nil {
		dst = append(dst, `,"estimates":`...)
		dst = appendEstimates(dst, m.Estimates)
	}
	return append(dst, '}')
}

// appendVector mirrors Vector.MarshalJSON: a compact array where null marks
// an empty cell. A nil vector encodes as [] (MarshalJSON is called on the
// value, not skipped), which matters inside snapshot rows.
func appendVector(dst []byte, v model.Vector) []byte {
	dst = append(dst, '[')
	for i, c := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		if c.Set {
			dst = appendJSONString(dst, c.Val)
		} else {
			dst = append(dst, `null`...)
		}
	}
	return append(dst, ']')
}

func appendSnapshot(dst []byte, s *Snapshot) []byte {
	dst = append(dst, `{"rows":`...)
	if s.Rows == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i := range s.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendRow(dst, &s.Rows[i])
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"uh":`...)
	dst = appendIntMap(dst, s.UH)
	dst = append(dst, `,"dh":`...)
	dst = appendIntMap(dst, s.DH)
	dst = append(dst, `,"uhVecs":`...)
	dst = appendVecMap(dst, s.UHVecs)
	dst = append(dst, `,"dhVecs":`...)
	dst = appendVecMap(dst, s.DHVecs)
	return append(dst, '}')
}

func appendRow(dst []byte, r *model.Row) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendJSONString(dst, string(r.ID))
	dst = append(dst, `,"vec":`...)
	dst = appendVector(dst, r.Vec)
	dst = append(dst, `,"up":`...)
	dst = strconv.AppendInt(dst, int64(r.Up), 10)
	dst = append(dst, `,"down":`...)
	dst = strconv.AppendInt(dst, int64(r.Down), 10)
	return append(dst, '}')
}

// appendIntMap encodes a map like encoding/json: null for nil, otherwise
// keys sorted lexicographically.
func appendIntMap(dst []byte, m map[string]int) []byte {
	if m == nil {
		return append(dst, `null`...)
	}
	keys := sortedKeysInt(m)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, k)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(m[k]), 10)
	}
	return append(dst, '}')
}

func appendVecMap(dst []byte, m map[string]model.Vector) []byte {
	if m == nil {
		return append(dst, `null`...)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, k)
		dst = append(dst, ':')
		dst = appendVector(dst, m[k])
	}
	return append(dst, '}')
}

func sortedKeysInt(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendEstimates(dst []byte, e *Estimates) []byte {
	dst = append(dst, `{"perColumn":`...)
	if e.PerColumn == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i, f := range e.PerColumn {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONFloat(dst, f)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"upvote":`...)
	dst = appendJSONFloat(dst, e.Upvote)
	dst = append(dst, `,"downvote":`...)
	dst = appendJSONFloat(dst, e.Downvote)
	return append(dst, '}')
}

// appendJSONFloat matches encoding/json's ES6-style number rendering:
// shortest representation, 'f' form inside [1e-6, 1e21), 'e' form outside
// with the exponent's leading zero trimmed (1e-09 → 1e-9).
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString matches encoding/json's string encoder with HTML escaping
// on (the json.Marshal default the wire has always used): `<`, `>`, `&`,
// U+2028 and U+2029 are \u-escaped, control bytes use the short escapes where
// they exist, and invalid UTF-8 bytes each become �.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Bytes < 0x20 without a short escape, plus <, >, &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonSafe reports whether an ASCII byte passes through the encoder
// unescaped (encoding/json's htmlSafeSet).
func jsonSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// ValidateEncodable reports whether m can be encoded: json.Marshal (and so
// this codec) rejects NaN and ±Inf floats, the only inexpressible values a
// Message can hold. Callers encoding with AppendMessage directly check this
// once up front instead of paying an error return on the hot path.
func ValidateEncodable(m Message) error {
	if !finiteFloats(m) {
		return fmt.Errorf("sync: encode message: unsupported value: non-finite float in estimates")
	}
	return nil
}

// finiteFloats reports whether every float the message carries is encodable
// (json.Marshal rejects NaN and ±Inf; so does EncodeMessage).
func finiteFloats(m Message) bool {
	e := m.Estimates
	if e == nil {
		return true
	}
	for _, f := range e.PerColumn {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return !(math.IsNaN(e.Upvote) || math.IsInf(e.Upvote, 0) ||
		math.IsNaN(e.Downvote) || math.IsInf(e.Downvote, 0))
}

// --- Decoder ---------------------------------------------------------------
//
// One parser, one pass over the input. Each struct has a loop that reads a
// key, dispatches it — on its length, then a distinguishing byte, then one
// exact compare: field's switch, as the compiler runs it; the Unicode fold
// match only on a miss — and decodes the value in place. What the system
// itself writes — no whitespace, exact keys, clean ASCII strings, plain
// integers — takes the first branch everywhere; anything else encoding/json
// would accept takes the neighbouring branch of the same parser.
//
// Failure is sticky (decoder.fail): the first one is recorded with its
// offset and the cursor jumps to the end of input, where every token read
// fails again and the loops unwind, so the value decoders return plain
// values instead of (value, error) pairs.

// maxNestingDepth mirrors encoding/json's scanner limit, so deeply nested
// (adversarial) inputs are rejected instead of recursing unboundedly.
const maxNestingDepth = 10000

// errSyntax stands in for the whole family of encoding/json errors, syntax
// and type mismatch alike. Error identity is not part of the wire contract —
// only whether an input is accepted — so one sentinel wrapped with position
// context suffices.
var errSyntax = errors.New("invalid JSON syntax")

// DecodeMessageInto parses a JSON-encoded message into *m, resetting it
// first. It accepts exactly the inputs json.Unmarshal accepts for Message —
// unknown fields are skipped, field names match case-insensitively as a
// fallback, null is a field-level no-op — and produces an identical result,
// without retaining any part of data (every string is copied out), so data
// may be a transport-owned buffer that is reused immediately after.
//
//lint:hotpath
func DecodeMessageInto(data []byte, m *Message) error {
	return decodeMessageInto(data, m, nil)
}

// DecodeCache is the interning cache of one link's read side: two small
// direct-mapped tables, one of the short strings (row ids, worker and client
// ids, cell values) and one of the whole vectors the link has decoded, so a
// message that repeats one shares the earlier copy instead of allocating its
// own. Crowd traffic repeats heavily — every vote carries a whole vector the
// link already decoded in the replace that built the row (§2.4) — which
// makes strings and vectors most of what a decoded message allocates.
//
// Sharing is safe because a model.Vector is immutable once built: the
// vectors of every message decoded through one cache may alias each other.
//
// An estimate is not immutable, so it is leased instead: a message's
// Estimates, and its PerColumn figures, live in storage the cache owns — one
// struct, and a backing array that grows to the widest payload the link has
// carried — and the next estimate decoded through the cache overwrites them.
// A caller that keeps the figures past that copies them.
//
// A cache belongs to exactly one reader (the transport's single-receiver
// contract), so it needs no lock; the zero value is ready to use. A miss, or
// a string over decodeCacheMaxLen, costs exactly the copy the cache-less
// decode makes, and a cached string is always that private copy — never a
// view of the buffer it was decoded from. A vector is interned only if it
// has at most decodeStackElems cells, none of them a string over
// decodeCacheMaxLen. Slot collisions overwrite: the tables hold at most
// decodeCacheSlots strings and decodeVecSlots vectors, whatever the link
// carries.
type DecodeCache struct {
	slots [decodeCacheSlots]string
	vecs  [decodeVecSlots]model.Vector
	est   estimateStore
}

// estimateStore is the storage a decoded estimate lives in: its struct, and
// the backing array its PerColumn figures are decoded into.
type estimateStore struct {
	Estimates
	cols []float64
}

// estimates returns the storage an estimate payload decodes into, its
// Estimates at the zero value: the cache's own, or without a cache a fresh
// one that the message keeps.
func (c *DecodeCache) estimates() *estimateStore {
	if c == nil {
		return new(estimateStore)
	}
	c.est.Estimates = Estimates{}
	return &c.est
}

// columns copies vals into the store's backing array and returns the copy.
// The array grows to the widest payload and is then reused, so everything
// past vals is cleared: a later duplicate "perColumn" key of the same
// message finds zeros there, as in the fresh array encoding/json would have
// grown, not an earlier message's figures.
func (s *estimateStore) columns(vals []float64) []float64 {
	cols := s.cols[:0]
	cols = append(cols, vals...)
	clear(cols[len(cols):cap(cols)])
	s.cols = cols
	return cols
}

const (
	decodeCacheSlots  = 256
	decodeCacheMaxLen = 64
	// The vector table's slot is the top decodeVecSlotBits of the vector's
	// hash.
	decodeVecSlotBits = 6
	decodeVecSlots    = 1 << decodeVecSlotBits
)

// DecodeMessageInto is the package-level DecodeMessageInto with the short
// strings and the vectors of the result served from c, and its Estimates
// decoded into c's storage, valid until c decodes the next estimate. The
// result is equal to the cache-less one in every field, and the same inputs
// are rejected.
//
//lint:hotpath
func (c *DecodeCache) DecodeMessageInto(data []byte, m *Message) error {
	return decodeMessageInto(data, m, c)
}

// str returns b, whose hash the string scan already computed, as a string
// the caller may retain.
func (c *DecodeCache) str(b []byte, h uint32) string {
	if c == nil || len(b) == 0 || len(b) > decodeCacheMaxLen {
		return string(b) //lint:allow hotalloc the copy the message retains of a string no cache holds: a cache-less decode, or a string too long to cache
	}
	s := &c.slots[h%decodeCacheSlots]
	if *s != string(b) {
		*s = string(b) //lint:allow hotalloc a cache miss makes the one copy the message retains and leaves it in the slot
	}
	return *s
}

// vector returns a Vector equal to cells, whose hash decoder.vector folded
// from the cells' string hashes. On a hit every cell equals the slot's —
// the cell strings are the cache's own, so each comparison is a pointer
// compare — and the slot's vector is shared; a miss allocates the vector
// once at its exact length and leaves it in the slot. A nil cache, an empty
// vector (which allocates nothing) and one the cache does not intern take
// the miss path without touching a slot.
func (c *DecodeCache) vector(cells []model.Cell, h uint32, intern bool) model.Vector {
	if c == nil || !intern || len(cells) == 0 || len(cells) > decodeStackElems {
		return newVector(cells)
	}
	v := &c.vecs[h>>(32-decodeVecSlotBits)]
	if !sameCells(*v, cells) {
		*v = newVector(cells)
	}
	return *v
}

// newVector copies cells into a vector of exactly their length.
func newVector(cells []model.Cell) model.Vector {
	out := make(model.Vector, len(cells)) //lint:allow hotalloc the vector the message retains, allocated once at its exact length
	copy(out, cells)
	return out
}

// sameCells reports whether v holds exactly cells.
func sameCells(v model.Vector, cells []model.Cell) bool {
	if len(v) != len(cells) {
		return false
	}
	for i := range cells {
		if v[i] != cells[i] {
			return false
		}
	}
	return true
}

// FNV-1a, the cache's string hash. decoder.string folds it into its scan,
// and decoder.vector folds the cells' hashes into the vector's the same way,
// with nullCellHash standing for a null cell.
const (
	fnvOffset    = 2166136261
	fnvPrime     = 16777619
	nullCellHash = 0x9e3779b9
)

// stringHash is the FNV-1a hash of a string's bytes, from which its slot is
// taken. It depends on nothing but the bytes, so a link's allocation count
// repeats from run to run.
func stringHash(b []byte) uint32 {
	h := uint32(fnvOffset)
	for _, x := range b {
		h = (h ^ uint32(x)) * fnvPrime
	}
	return h
}

func decodeMessageInto(data []byte, m *Message, cache *DecodeCache) error {
	*m = Message{}
	d := decoder{data: data, cache: cache}
	switch d.tok() {
	case '{':
		d.message(m)
	case 'n':
		d.lit("null") // top-level null: json.Unmarshal leaves the target untouched
	default:
		d.fail("expected a message object")
	}
	if d.tok(); d.pos < len(d.data) {
		d.fail("trailing data after top-level value")
	}
	return d.err
}

type decoder struct {
	data  []byte
	pos   int
	cache *DecodeCache   // nil: every decoded string is a fresh copy
	est   *estimateStore // the storage of the estimate being decoded
	err   error          // the first failure; see fail
}

// fail records the first failure, with the offset it was found at, and moves
// the cursor to the end of input: every later token read then fails too, so
// the decode loops end without checking an error after each call.
func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("sync: decode message: %w: %s at offset %d", errSyntax, msg, d.pos) //lint:allow hotalloc error construction happens only on malformed input
	}
	d.pos = len(d.data)
}

// tok returns the byte that starts the next token and leaves the cursor on
// it; 0 at the end of input, which no caller accepts as a token. Whitespace
// is looked for only when the byte under the cursor is not above ' '.
func (d *decoder) tok() byte {
	if d.pos < len(d.data) {
		if c := d.data[d.pos]; c > ' ' {
			return c
		}
		return d.tokAfterSpace()
	}
	return 0
}

// tokAfterSpace is tok from a byte that may be JSON whitespace.
func (d *decoder) tokAfterSpace() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// at reports whether the byte under the cursor is c.
func (d *decoder) at(c byte) bool { return d.pos < len(d.data) && d.data[d.pos] == c }

// lit consumes the literal s, whose first byte the caller has seen.
func (d *decoder) lit(s string) {
	if len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		d.fail("invalid literal")
		return
	}
	d.pos += len(s)
}

// begin reads the start of a nullable container: true with the cursor on
// opener, false after consuming a null (or failing on anything else).
func (d *decoder) begin(opener byte) bool {
	switch d.tok() {
	case opener:
		return true
	case 'n':
		d.lit("null")
	default:
		d.fail("wrong type of value for the field")
	}
	return false
}

// open consumes a container's opening byte, which the caller has seen, and
// reports whether an element follows; an empty container is consumed whole.
// A container's loop is `for more := d.open(c); more; more = d.more(c)`.
func (d *decoder) open(closer byte) bool {
	d.pos++
	if d.tok() == closer {
		d.pos++
		return false
	}
	return true
}

// more consumes what follows an element — a comma or the closer — and
// reports whether another element follows.
func (d *decoder) more(closer byte) bool {
	switch d.tok() {
	case ',':
		d.pos++
		return true
	case closer:
		d.pos++
		return false
	}
	d.fail("expected ',' or the end of the container")
	return false
}

// key consumes an object key and its colon and returns the unescaped name.
func (d *decoder) key() []byte {
	if d.tok() != '"' {
		d.fail("expected object key")
		return nil
	}
	k, _ := d.string(false)
	d.colon()
	return k
}

// colon consumes the ':' between a key and its value.
func (d *decoder) colon() {
	if d.tok() != ':' {
		d.fail("expected ':' after object key")
		return
	}
	d.pos++
}

// fieldID names a JSON field of Message, Snapshot, model.Row or Estimates.
// The four structs share one space of ids ("vec" is in two of them): no two
// names are equal under case folding, so resolving a key against all of them
// and letting each struct's loop skip the ids it does not own decides exactly
// what resolving it against that struct's own fields would.
type fieldID int

const (
	fUnknown fieldID = iota
	fType
	fRow
	fNewRow
	fVec
	fOrigin
	fWorker
	fSeq
	fTS
	fAuto
	fCol
	fVal
	fSnapshot
	fEstimates
	fRows
	fUH
	fDH
	fUHVecs
	fDHVecs
	fID
	fUp
	fDown
	fPerColumn
	fUpvote
	fDownvote
)

// fieldNames is indexed by fieldID; the fold match walks it.
var fieldNames = [...]string{
	fType: "type", fRow: "row", fNewRow: "newRow", fVec: "vec", fOrigin: "origin", fWorker: "worker",
	fSeq: "seq", fTS: "ts", fAuto: "auto", fCol: "col", fVal: "val", fSnapshot: "snapshot", fEstimates: "estimates",
	fRows: "rows", fUH: "uh", fDH: "dh", fUHVecs: "uhVecs", fDHVecs: "dhVecs",
	fID: "id", fUp: "up", fDown: "down",
	fPerColumn: "perColumn", fUpvote: "upvote", fDownvote: "downvote",
}

// field consumes a struct's key and its colon and resolves it. The switch runs on the
// key's bytes in place and compiles to a dispatch on their length, then on a
// distinguishing byte (the first, except between vec and val), then one
// exact compare; an exact match wins, as in encoding/json's lookup, and a
// miss — upper case, a non-ASCII spelling, or a key no field has — falls to
// the fold match.
func (d *decoder) field() fieldID {
	if d.tok() != '"' {
		d.fail("expected object key")
		return fUnknown
	}
	// Every field name is a run of ASCII letters: one test per byte finds
	// the end of a key that is one, and the first byte of any other kind — a
	// digit, an escape, a non-ASCII spelling — sends the rest through unquote.
	data, start := d.data, d.pos+1
	i := start
	for i < len(data) && (data[i]|0x20)-'a' < 26 {
		i++
	}
	var k []byte
	if i < len(data) && data[i] == '"' {
		k, d.pos = data[start:i], i+1
	} else {
		k, _ = d.unquote(start, i)
	}
	d.colon()
	switch string(k) {
	case "type":
		return fType
	case "row":
		return fRow
	case "newRow":
		return fNewRow
	case "vec":
		return fVec
	case "origin":
		return fOrigin
	case "worker":
		return fWorker
	case "seq":
		return fSeq
	case "ts":
		return fTS
	case "auto":
		return fAuto
	case "col":
		return fCol
	case "val":
		return fVal
	case "snapshot":
		return fSnapshot
	case "estimates":
		return fEstimates
	case "rows":
		return fRows
	case "uh":
		return fUH
	case "dh":
		return fDH
	case "uhVecs":
		return fUHVecs
	case "dhVecs":
		return fDHVecs
	case "id":
		return fID
	case "up":
		return fUp
	case "down":
		return fDown
	case "perColumn":
		return fPerColumn
	case "upvote":
		return fUpvote
	case "downvote":
		return fDownvote
	}
	for id := fType; int(id) < len(fieldNames); id++ {
		if foldEqual(k, fieldNames[id]) {
			return id
		}
	}
	return fUnknown
}

// foldEqual reports whether key equals name under Unicode simple case
// folding, rune by rune — encoding/json's fallback for a key no field spells
// exactly: "TYPE", or "wor\u212aer", whose Kelvin sign folds to k.
func foldEqual(key []byte, name string) bool {
	for len(key) > 0 && name != "" {
		r, size := utf8.DecodeRune(key)
		if foldRune(r) != foldRune(rune(name[0])) { // names are ASCII: one byte, one rune
			return false
		}
		key, name = key[size:], name[1:]
	}
	return len(key) == 0 && name == ""
}

// foldRune returns the smallest rune of r's fold orbit (encoding/json's
// foldRune): two runes fold together exactly when these agree.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// message decodes the object under the cursor into m. In every struct loop a
// null value leaves the field as it was (the decoders take the old value and
// return it), a duplicate key decodes again over the first, and an unknown
// key's value is skipped — each as json.Unmarshal does.
func (d *decoder) message(m *Message) {
	for more := d.open('}'); more; more = d.more('}') {
		switch d.field() {
		case fType:
			m.Type = MsgType(d.int64(int64(m.Type)))
		case fRow:
			m.Row = model.RowID(d.str(string(m.Row)))
		case fNewRow:
			m.NewRow = model.RowID(d.str(string(m.NewRow)))
		case fVec:
			m.Vec = d.vector()
		case fOrigin:
			m.Origin = d.str(m.Origin)
		case fWorker:
			m.Worker = d.str(m.Worker)
		case fSeq:
			m.Seq = d.int64(m.Seq)
		case fTS:
			m.TS = d.int64(m.TS)
		case fAuto:
			m.Auto = d.bool(m.Auto)
		case fCol:
			m.Col = int(d.int64(int64(m.Col)))
		case fVal:
			m.Val = d.str(m.Val)
		case fSnapshot:
			m.Snapshot = d.snapshot(m.Snapshot) //lint:allow hotalloc snapshot records are join-time private messages, not steady-state broadcasts
		case fEstimates:
			m.Estimates = d.estimates(m.Estimates) //lint:allow hotalloc only the cache-less decode allocates here, the struct and column slice its message keeps; through a link cache an estimate decodes into the cache's storage (TestDecodeCacheEstimateAllocs pins 0) and its float literals convert on the stack
		default:
			d.skip(1)
		}
	}
}

func (d *decoder) snapshot(s *Snapshot) *Snapshot {
	if !d.begin('{') {
		return nil
	}
	if s == nil {
		s = &Snapshot{}
	}
	for more := d.open('}'); more; more = d.more('}') {
		switch d.field() {
		case fRows:
			s.Rows = d.rows(s.Rows)
		case fUH:
			s.UH = d.intMap(s.UH)
		case fDH:
			s.DH = d.intMap(s.DH)
		case fUHVecs:
			s.UHVecs = d.vecMap(s.UHVecs)
		case fDHVecs:
			s.DHVecs = d.vecMap(s.DHVecs)
		default:
			d.skip(2)
		}
	}
	return s
}

func (d *decoder) estimates(e *Estimates) *Estimates {
	if !d.begin('{') {
		return nil
	}
	if e == nil {
		d.est = d.cache.estimates()
		e = &d.est.Estimates
	}
	for more := d.open('}'); more; more = d.more('}') {
		switch d.field() {
		case fPerColumn:
			e.PerColumn = d.floats(e.PerColumn)
		case fUpvote:
			e.Upvote = d.float64(e.Upvote)
		case fDownvote:
			e.Downvote = d.float64(e.Downvote)
		default:
			d.skip(2)
		}
	}
	return e
}

// rows decodes over the slice an earlier "rows" key left, element by
// element, the way encoding/json reuses a slice: a duplicate key's row keeps
// the fields its own object does not mention.
func (d *decoder) rows(rows []model.Row) []model.Row {
	if !d.begin('[') {
		return nil
	}
	rows = rows[:0]
	for more := d.open(']'); more; more = d.more(']') {
		if len(rows) < cap(rows) {
			rows = rows[:len(rows)+1]
		} else {
			rows = append(rows, model.Row{})
		}
		d.row(&rows[len(rows)-1])
	}
	if len(rows) == 0 {
		return []model.Row{}
	}
	return rows
}

func (d *decoder) row(r *model.Row) {
	if !d.begin('{') {
		return // a null element leaves the row as it is
	}
	for more := d.open('}'); more; more = d.more('}') {
		switch d.field() {
		case fID:
			r.ID = model.RowID(d.str(string(r.ID)))
		case fVec:
			r.Vec = d.vector()
		case fUp:
			r.Up = int(d.int64(int64(r.Up)))
		case fDown:
			r.Down = int(d.int64(int64(r.Down)))
		default:
			d.skip(4)
		}
	}
}

// decodeStackElems is how many elements vector and floats collect on the
// stack before spilling: wider than any schema in the paper.
const decodeStackElems = 16

// vector mirrors Vector.UnmarshalJSON (an array of string-or-null): null and
// [] both produce a non-nil empty Vector. Cells collect in a stack array (a
// wider vector spills to the heap) while their string hashes fold into the
// vector's, so the link cache can serve the whole vector; otherwise the
// result is allocated once, at its exact length.
func (d *decoder) vector() model.Vector {
	var buf [decodeStackElems]model.Cell
	cells := buf[:0]
	h, intern := uint32(fnvOffset), true
	if d.begin('[') {
		for more := d.open(']'); more; more = d.more(']') {
			switch d.tok() {
			case '"':
				b, sh := d.string(d.cache != nil)
				cells = append(cells, model.Cell{Set: true, Val: d.cache.str(b, sh)})
				h = (h ^ sh) * fnvPrime
				intern = intern && len(b) <= decodeCacheMaxLen
			case 'n':
				d.lit("null")
				cells = append(cells, model.Cell{})
				h = (h ^ nullCellHash) * fnvPrime
			default:
				d.fail("vector cell must be a string or null")
			}
		}
	}
	return d.cache.vector(cells, h, intern)
}

// noFigures is what [] decodes to: a non-nil empty slice with no capacity,
// like the one encoding/json makes, so a later duplicate key starts afresh.
var noFigures = make([]float64, 0)

// floats has vector's shape: collect on the stack, then store the figures
// once, in the estimate's storage. A null element keeps what the slot held:
// zero, or under a duplicate key whatever the earlier array left in the
// backing store encoding/json would reuse.
func (d *decoder) floats(old []float64) []float64 {
	if !d.begin('[') {
		return nil
	}
	old = old[:cap(old)]
	var buf [decodeStackElems]float64
	vals := buf[:0]
	for more := d.open(']'); more; more = d.more(']') {
		var f float64
		if len(vals) < len(old) {
			f = old[len(vals)]
		}
		vals = append(vals, d.float64(f))
	}
	switch {
	case len(vals) == 0:
		return noFigures
	case len(vals) > len(old):
		return d.est.columns(vals)
	}
	old = old[:len(vals)]
	copy(old, vals)
	return old
}

func (d *decoder) intMap(m map[string]int) map[string]int {
	if !d.begin('{') {
		return nil
	}
	if m == nil {
		m = make(map[string]int)
	}
	for more := d.open('}'); more; more = d.more('}') {
		k := string(d.key())
		m[k] = int(d.int64(0)) // a null value stores the zero, as encoding/json's map decode does
	}
	return m
}

func (d *decoder) vecMap(m map[string]model.Vector) map[string]model.Vector {
	if !d.begin('{') {
		return nil
	}
	if m == nil {
		m = make(map[string]model.Vector)
	}
	for more := d.open('}'); more; more = d.more('}') {
		k := string(d.key())
		m[k] = d.vector()
	}
	return m
}

// str decodes a string value into one that shares nothing with the input (a
// fresh copy, or the link cache's earlier one); null keeps old.
func (d *decoder) str(old string) string {
	switch d.tok() {
	case '"':
		return d.cache.str(d.string(d.cache != nil))
	case 'n':
		d.lit("null")
	default:
		d.fail("expected string")
	}
	return old
}

func (d *decoder) bool(old bool) bool {
	switch d.tok() {
	case 't':
		d.lit("true")
		return true
	case 'f':
		d.lit("false")
		return false
	case 'n':
		d.lit("null")
	default:
		d.fail("expected boolean")
	}
	return old
}

// int64 decodes a number of integer syntax — '-'? then 0 or a digit run
// without a leading zero — accumulating it on the way; null keeps old. A
// fraction or exponent is rejected as encoding/json rejects "1.0" and "1e2"
// for an integer field, and so is a value outside int64: a run of more than
// 19 digits, or a magnitude above 1<<63 - 1 (1<<63 behind a '-').
func (d *decoder) int64(old int64) int64 {
	c := d.tok()
	if c == 'n' {
		d.lit("null")
		return old
	}
	data, pos := d.data, d.pos
	var limit uint64 = 1<<63 - 1
	if c == '-' {
		limit++
		pos++
	}
	start, u := pos, uint64(0)
	for ; pos < len(data) && data[pos]-'0' <= 9; pos++ {
		u = u*10 + uint64(data[pos]-'0') // wraps only past 19 digits, which are rejected below
	}
	d.pos = pos
	var next byte // what follows the digits; 0 at the end of input
	if pos < len(data) {
		next = data[pos]
	}
	switch n := pos - start; {
	case n == 0:
		d.fail("expected integer")
	case n > 1 && data[start] == '0':
		d.pos = start + 1
		d.fail("leading zero in number")
	case next == '.' || next == 'e' || next == 'E':
		d.fail("fraction or exponent in integer field")
	case n > 19 || u > limit:
		d.pos = start
		d.fail("integer overflows int64")
	case c == '-':
		return -int64(u)
	default:
		return int64(u)
	}
	return old
}

// float64 decodes a number through strconv.ParseFloat on the validated
// literal (a range error rejects, as in encoding/json); null keeps old.
func (d *decoder) float64(old float64) float64 {
	if d.tok() == 'n' {
		d.lit("null")
		return old
	}
	lit := d.number()
	if d.err != nil {
		return old
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.pos -= len(lit)
		d.fail("number out of range for a float field")
	}
	return v
}

// number consumes a number of JSON's grammar and returns its bytes.
func (d *decoder) number() []byte {
	start := d.pos
	if d.at('-') {
		d.pos++
	}
	if n := d.digits(); n == 0 || n > 1 && d.data[d.pos-n] == '0' {
		d.fail("invalid number")
	}
	if d.at('.') {
		if d.pos++; d.digits() == 0 {
			d.fail("truncated fraction")
		}
	}
	if d.at('e') || d.at('E') {
		if d.pos++; d.at('+') || d.at('-') {
			d.pos++
		}
		if d.digits() == 0 {
			d.fail("truncated exponent")
		}
	}
	return d.data[start:d.pos]
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos]-'0' <= 9 {
		d.pos++
	}
	return d.pos - start
}

// string consumes a JSON string (cursor on the opening quote) and returns
// its unescaped contents with their stringHash, computed (when hash is set)
// in the same scan that looks for the closing quote. Clean ASCII —
// everything this system writes — never leaves the loop, and the result
// aliases d.data: callers copy before retaining. The first escape, control
// byte or non-ASCII byte hands the rest of the string to unquote.
func (d *decoder) string(hash bool) ([]byte, uint32) {
	data, start := d.data, d.pos+1
	h := uint32(fnvOffset)
	for i := start; i < len(data); i++ {
		c := data[i]
		if c == '"' {
			d.pos = i + 1
			return data[start:i], h
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			return d.unquote(start, i)
		}
		if hash {
			h = (h ^ uint32(c)) * fnvPrime
		}
	}
	return d.unquote(start, len(data))
}

// jsonEscapes are the single-letter escapes and, index for index, the bytes
// they stand for.
const (
	jsonEscapes   = `"\/bfnrt`
	jsonUnescaped = "\"\\/\b\f\n\r\t"
)

// unquote is string's branch for everything but clean ASCII, resumed at i.
// It matches encoding/json's unquote: valid UTF-8 passes through, still
// aliasing d.data; an escape or an invalid byte starts an unescaped copy —
// \uXXXX with surrogate pairing, lone surrogates and invalid UTF-8 each
// becoming U+FFFD; a raw control byte is an error.
func (d *decoder) unquote(start, i int) ([]byte, uint32) {
	var out []byte
	copied := false // out holds the unescaped form of d.data[..start]
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			if copied {
				out = append(out, d.data[start:i]...)
			} else {
				out = d.data[start:i]
			}
			return out, stringHash(out)
		case c < ' ':
			d.pos = i
			d.fail("control character in string")
			return nil, 0
		case c == '\\':
			out = append(out, d.data[start:i]...)
			copied = true
			if i++; i == len(d.data) {
				break
			}
			if j := strings.IndexByte(jsonEscapes, d.data[i]); j >= 0 {
				out = append(out, jsonUnescaped[j])
				i++
			} else if r := getu4(d.data[i-1:]); r >= 0 {
				i += 5
				if utf16.IsSurrogate(r) {
					// A valid pair decodes to one rune; a lone half to U+FFFD.
					if r = utf16.DecodeRune(r, getu4(d.data[i:])); r != utf8.RuneError {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			} else {
				d.pos = i
				d.fail("invalid escape")
				return nil, 0
			}
			start = i
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				out = append(out, d.data[start:i]...)
				out = append(out, "\uFFFD"...)
				copied, start = true, i+1
			}
			i += size
		}
	}
	d.pos = len(d.data)
	d.fail("unterminated string")
	return nil, 0
}

// getu4 parses \uXXXX at the start of s, returning -1 on malformed input
// (mirrors encoding/json's getu4).
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// skip consumes one syntactically valid JSON value of any shape — an unknown
// field's — holding it to encoding/json's nesting limit; depth is how many
// containers are already open around it.
func (d *decoder) skip(depth int) {
	switch c := d.tok(); c {
	case '{', '[':
		if depth++; depth > maxNestingDepth {
			d.fail("exceeded max nesting depth")
			return
		}
		closer := c + 2 // ']' and '}' each sit two above their opener
		for more := d.open(closer); more; more = d.more(closer) {
			if c == '{' {
				d.key()
			}
			d.skip(depth)
		}
	case '"':
		d.string(false)
	case 't':
		d.lit("true")
	case 'f':
		d.lit("false")
	case 'n':
		d.lit("null")
	default:
		d.number()
	}
}
