// Hand-rolled wire codec for Message: an append-based encoder and an
// allocation-conscious scanner decoder that are byte-for-byte and
// behavior-for-behavior compatible with the encoding/json forms the system
// has always spoken (json.Marshal with HTML escaping; json.Unmarshal with
// case-folded field matching). The stored traces, the committed fuzz corpora
// and every deployed client depend on the exact bytes, so compatibility is
// the contract here — proven by TestCodecWireByteIdentity and the
// FuzzCodecDifferential target, which cross-check every path against the
// encoding/json reference implementations kept in message.go.
//
// Why hand-rolled: encoding/json costs ~30-50 heap allocations per message
// (reflection machinery, intermediate field buffers, the decoder's state).
// AppendMessage allocates nothing beyond growing dst, and DecodeMessageInto
// allocates only what the decoded message itself retains (its strings, and
// each vector or float slice once at its exact length) — never scratch, never
// scanner state — which is what lets the transport layer decode straight out
// of a leased read buffer. A link's read side decodes through a DecodeCache,
// which also serves the short strings that link keeps repeating.
package sync

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
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

// maxNestingDepth mirrors encoding/json's scanner limit, so deeply nested
// (adversarial) inputs are rejected instead of recursing unboundedly.
const maxNestingDepth = 10000

// errSyntax stands in for the whole family of encoding/json syntax errors.
// Error identity is not part of the wire contract — only whether an input is
// accepted — so one sentinel wrapped with position context suffices.
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

// DecodeCache is the string cache of one link's read side: a small
// direct-mapped table of the short strings (row ids, worker and client ids,
// cell values) the link has decoded, so a message that repeats one shares
// the earlier copy instead of allocating its own. Crowd traffic repeats
// heavily — every vote carries a whole vector of values that arrived before
// — which makes the strings most of what a decoded message allocates.
//
// A cache belongs to exactly one reader (the transport's single-receiver
// contract), so it needs no lock; the zero value is ready to use. A miss, or
// a string over decodeCacheMaxLen, costs exactly the copy the cache-less
// decode makes, and a cached string is always that private copy — never a
// view of the buffer it was decoded from. Slot collisions overwrite: the
// table holds at most decodeCacheSlots strings, whatever the link carries.
type DecodeCache struct {
	slots [decodeCacheSlots]string
}

const (
	decodeCacheSlots  = 256
	decodeCacheMaxLen = 64
)

// DecodeMessageInto is the package-level DecodeMessageInto with the short
// strings of the result served from c. The result is equal to the cache-less
// one in every field, and the same inputs are rejected.
//
//lint:hotpath
func (c *DecodeCache) DecodeMessageInto(data []byte, m *Message) error {
	return decodeMessageInto(data, m, c)
}

// str returns b as a string the caller may retain.
func (c *DecodeCache) str(b []byte) string {
	if c == nil || len(b) == 0 || len(b) > decodeCacheMaxLen {
		return string(b)
	}
	slot := &c.slots[decodeCacheSlot(b)]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// decodeCacheSlot maps a string's bytes to its slot (FNV-1a). The slot
// depends on nothing but the bytes, so a link's allocation count repeats
// from run to run.
func decodeCacheSlot(b []byte) uint32 {
	h := uint32(2166136261)
	for _, x := range b {
		h = (h ^ uint32(x)) * 16777619
	}
	return h % decodeCacheSlots
}

func decodeMessageInto(data []byte, m *Message, cache *DecodeCache) error {
	*m = Message{}
	d := decoder{data: data, cache: cache}
	d.skipSpace()
	if d.eof() {
		return d.fail("unexpected end of input")
	}
	if d.peek() == 'n' {
		// Top-level null: json.Unmarshal leaves the target untouched.
		if err := d.expectLiteral("null"); err != nil {
			return err
		}
	} else if err := d.decodeMessage(m); err != nil {
		return err
	}
	d.skipSpace()
	if !d.eof() {
		return d.fail("trailing data after top-level value")
	}
	return nil
}

type decoder struct {
	data  []byte
	pos   int
	depth int
	cache *DecodeCache // nil: every decoded string is a fresh copy
}

func (d *decoder) eof() bool  { return d.pos >= len(d.data) }
func (d *decoder) peek() byte { return d.data[d.pos] }
func (d *decoder) fail(msg string) error {
	return fmt.Errorf("sync: decode message: %w: %s at offset %d", errSyntax, msg, d.pos) //lint:allow hotalloc error construction happens only on malformed input
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *decoder) push() error {
	d.depth++
	if d.depth > maxNestingDepth {
		return d.fail("exceeded max nesting depth")
	}
	return nil
}

func (d *decoder) pop() { d.depth-- }

func (d *decoder) expectLiteral(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.fail("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// next scans the byte starting the next value (after leading whitespace) and
// returns it without consuming, or an error at EOF.
func (d *decoder) next() (byte, error) {
	d.skipSpace()
	if d.eof() {
		return 0, d.fail("unexpected end of input")
	}
	return d.peek(), nil
}

// decodeObject drives the shared object-decoding loop: it parses keys,
// matches them against names (exact first, then Unicode-case-folded in
// declaration order, as encoding/json does), and calls decodeField with the
// matched index — or skips the value for unknown keys. decodeField must
// consume exactly one value.
func (d *decoder) decodeObject(names []string, decodeField func(i int) error) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c != '{' {
		return d.fail("expected object")
	}
	if err := d.push(); err != nil {
		return err
	}
	defer d.pop()
	d.pos++
	c, err = d.next()
	if err != nil {
		return err
	}
	if c == '}' {
		d.pos++
		return nil
	}
	for {
		c, err = d.next()
		if err != nil {
			return err
		}
		if c != '"' {
			return d.fail("expected object key")
		}
		key, err := d.decodeStringBytes()
		if err != nil {
			return err
		}
		idx := matchField(key, names)
		c, err = d.next()
		if err != nil {
			return err
		}
		if c != ':' {
			return d.fail("expected ':' after object key")
		}
		d.pos++
		if idx >= 0 {
			if err := decodeField(idx); err != nil { //lint:allow hotalloc non-escaping decode callback, the concrete field decoders are in this file
				return err
			}
		} else if err := d.skipValue(); err != nil {
			return err
		}
		c, err = d.next()
		if err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.fail("expected ',' or '}' in object")
		}
	}
}

// matchField resolves a decoded key against field names: exact match wins;
// otherwise the first case-fold-equal name in declaration order (mirroring
// encoding/json's byExactName/byFoldedName lookup). Returns -1 for unknown.
func matchField(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if foldEqual(key, n) {
			return i
		}
	}
	return -1
}

// foldEqual is bytes.EqualFold(key, name) without converting name; the
// canonical names are ASCII so ASCII-folding the name side suffices, while
// the key side folds full Unicode the way encoding/json's foldName does.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); {
		if j >= len(name) {
			return false
		}
		kr, size := rune(key[i]), 1
		if key[i] >= utf8.RuneSelf {
			kr, size = utf8.DecodeRune(key[i:])
		}
		nr := rune(name[j])
		if !runeFoldEqual(kr, nr) {
			return false
		}
		i += size
		j++
	}
	return j == len(name)
}

// runeFoldEqual reports simple-case-fold equality, matching bytes.EqualFold.
func runeFoldEqual(a, b rune) bool {
	if a == b {
		return true
	}
	if a < b {
		a, b = b, a
	}
	// Fast path for ASCII b (all canonical field-name runes are ASCII).
	if a < utf8.RuneSelf {
		return 'A' <= b && b <= 'Z' && a == b+'a'-'A'
	}
	// Slow path: walk a's fold orbit, as strings.EqualFold does.
	r := simpleFold(a)
	for r != a && r < a {
		if r == b {
			return true
		}
		r = simpleFold(r)
	}
	return r == b
}

// simpleFold is unicode.SimpleFold, kept behind one name so the decode
// path's dependency on the Unicode tables is explicit.
func simpleFold(r rune) rune { return unicode.SimpleFold(r) }

// decodeMessage decodes a JSON object (already vetted to start with '{' or
// be reachable) into m.
func (d *decoder) decodeMessage(m *Message) error {
	return d.decodeObject(messageFields,
		//lint:allow hotalloc non-escaping field callback, it never outlives the decode call
		func(i int) error {
			switch i {
			case 0: // type
				return d.decodeInt64(func(v int64) { m.Type = MsgType(v) })
			case 1: // row
				return d.decodeString(func(s string) { m.Row = model.RowID(s) })
			case 2: // newRow
				return d.decodeString(func(s string) { m.NewRow = model.RowID(s) })
			case 3: // vec
				return d.decodeVector(&m.Vec)
			case 4: // origin
				return d.decodeString(func(s string) { m.Origin = s })
			case 5: // worker
				return d.decodeString(func(s string) { m.Worker = s })
			case 6: // seq
				return d.decodeInt64(func(v int64) { m.Seq = v })
			case 7: // ts
				return d.decodeInt64(func(v int64) { m.TS = v })
			case 8: // auto
				return d.decodeBool(&m.Auto)
			case 9: // col
				return d.decodeInt64(func(v int64) { m.Col = int(v) })
			case 10: // val
				return d.decodeString(func(s string) { m.Val = s })
			case 11: // snapshot
				return d.decodeSnapshotPtr(&m.Snapshot)
			case 12: // estimates
				return d.decodeEstimatesPtr(&m.Estimates)
			}
			return d.fail("unreachable field index")
		})
}

var messageFields = []string{
	"type", "row", "newRow", "vec", "origin", "worker",
	"seq", "ts", "auto", "col", "val", "snapshot", "estimates",
}

var snapshotFields = []string{"rows", "uh", "dh", "uhVecs", "dhVecs"}

var rowFields = []string{"id", "vec", "up", "down"}

var estimatesFields = []string{"perColumn", "upvote", "downvote"}

func (d *decoder) decodeSnapshotPtr(p **Snapshot) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.expectLiteral("null"); err != nil {
			return err
		}
		*p = nil
		return nil
	}
	s := *p
	if s == nil {
		s = &Snapshot{}
	}
	err = d.decodeObject(snapshotFields, func(i int) error {
		switch i {
		case 0: // rows
			return d.decodeRows(&s.Rows)
		case 1: // uh
			return d.decodeIntMap(&s.UH)
		case 2: // dh
			return d.decodeIntMap(&s.DH)
		case 3: // uhVecs
			return d.decodeVecMap(&s.UHVecs)
		case 4: // dhVecs
			return d.decodeVecMap(&s.DHVecs)
		}
		return d.fail("unreachable field index")
	})
	if err != nil {
		return err
	}
	*p = s
	return nil
}

func (d *decoder) decodeEstimatesPtr(p **Estimates) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.expectLiteral("null"); err != nil {
			return err
		}
		*p = nil
		return nil
	}
	e := *p
	if e == nil {
		e = &Estimates{}
	}
	err = d.decodeObject(estimatesFields, func(i int) error {
		switch i {
		case 0: // perColumn
			return d.decodeFloatSlice(&e.PerColumn)
		case 1: // upvote
			return d.decodeFloat64(&e.Upvote)
		case 2: // downvote
			return d.decodeFloat64(&e.Downvote)
		}
		return d.fail("unreachable field index")
	})
	if err != nil {
		return err
	}
	*p = e
	return nil
}

func (d *decoder) decodeRows(rows *[]model.Row) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.expectLiteral("null"); err != nil {
			return err
		}
		*rows = nil
		return nil
	}
	if c != '[' {
		return d.fail("expected array of rows")
	}
	if err := d.push(); err != nil {
		return err
	}
	defer d.pop()
	d.pos++
	out := []model.Row{}
	c, err = d.next()
	if err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		*rows = out
		return nil
	}
	for {
		var r model.Row
		if err := d.decodeRow(&r); err != nil {
			return err
		}
		out = append(out, r)
		c, err = d.next()
		if err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
		case ']':
			d.pos++
			*rows = out
			return nil
		default:
			return d.fail("expected ',' or ']' in array")
		}
	}
}

func (d *decoder) decodeRow(r *model.Row) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		// A null array element leaves the zero Row in place.
		return d.expectLiteral("null")
	}
	return d.decodeObject(rowFields, func(i int) error {
		switch i {
		case 0: // id
			return d.decodeString(func(s string) { r.ID = model.RowID(s) })
		case 1: // vec
			return d.decodeVector(&r.Vec)
		case 2: // up
			return d.decodeInt64(func(v int64) { r.Up = int(v) })
		case 3: // down
			return d.decodeInt64(func(v int64) { r.Down = int(v) })
		}
		return d.fail("unreachable field index")
	})
}

// decodeVector mirrors Vector.UnmarshalJSON (array of string-or-null via
// []*string): null and [] both produce a non-nil empty Vector, exactly as
// make(Vector, 0) does there.
func (d *decoder) decodeVector(v *model.Vector) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.expectLiteral("null"); err != nil {
			return err
		}
		*v = make(model.Vector, 0)
		return nil
	}
	if c != '[' {
		return d.fail("expected vector array")
	}
	if err := d.push(); err != nil {
		return err
	}
	defer d.pop()
	d.pos++
	c, err = d.next()
	if err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		*v = make(model.Vector, 0)
		return nil
	}
	// Cells collect in a stack array (a wider vector spills to the heap) so
	// the result is allocated once, at its exact length.
	var buf [decodeStackElems]model.Cell
	cells := buf[:0]
	for {
		c, err = d.next()
		if err != nil {
			return err
		}
		switch c {
		case 'n':
			if err := d.expectLiteral("null"); err != nil {
				return err
			}
			cells = append(cells, model.Cell{})
		case '"':
			s, err := d.decodeStringBytes()
			if err != nil {
				return err
			}
			cells = append(cells, model.Cell{Set: true, Val: d.cache.str(s)})
		default:
			return d.fail("vector cell must be a string or null")
		}
		c, err = d.next()
		if err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
		case ']':
			d.pos++
			out := make(model.Vector, len(cells))
			copy(out, cells)
			*v = out
			return nil
		default:
			return d.fail("expected ',' or ']' in array")
		}
	}
}

func (d *decoder) decodeIntMap(mp *map[string]int) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.expectLiteral("null"); err != nil {
			return err
		}
		*mp = nil
		return nil
	}
	out := *mp
	if out == nil {
		out = make(map[string]int)
	}
	err = d.decodeMapBody(func(key string) error {
		// Null values store the zero, matching encoding/json's map decode
		// (the element is decoded into a fresh zero value, then stored).
		var v int64
		if err := d.decodeInt64Nullable(func(n int64) { v = n }); err != nil {
			return err
		}
		out[key] = int(v)
		return nil
	})
	if err != nil {
		return err
	}
	*mp = out
	return nil
}

func (d *decoder) decodeVecMap(mp *map[string]model.Vector) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.expectLiteral("null"); err != nil {
			return err
		}
		*mp = nil
		return nil
	}
	out := *mp
	if out == nil {
		out = make(map[string]model.Vector)
	}
	err = d.decodeMapBody(func(key string) error {
		var v model.Vector
		if err := d.decodeVector(&v); err != nil {
			return err
		}
		out[key] = v
		return nil
	})
	if err != nil {
		return err
	}
	*mp = out
	return nil
}

// decodeMapBody parses {"key": <value>, ...}, calling decodeValue for each
// key with the cursor at the value.
func (d *decoder) decodeMapBody(decodeValue func(key string) error) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c != '{' {
		return d.fail("expected object")
	}
	if err := d.push(); err != nil {
		return err
	}
	defer d.pop()
	d.pos++
	c, err = d.next()
	if err != nil {
		return err
	}
	if c == '}' {
		d.pos++
		return nil
	}
	for {
		c, err = d.next()
		if err != nil {
			return err
		}
		if c != '"' {
			return d.fail("expected object key")
		}
		key, err := d.decodeStringBytes()
		if err != nil {
			return err
		}
		keyStr := string(key)
		c, err = d.next()
		if err != nil {
			return err
		}
		if c != ':' {
			return d.fail("expected ':' after object key")
		}
		d.pos++
		if err := decodeValue(keyStr); err != nil {
			return err
		}
		c, err = d.next()
		if err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.fail("expected ',' or '}' in object")
		}
	}
}

func (d *decoder) decodeFloatSlice(p *[]float64) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.expectLiteral("null"); err != nil {
			return err
		}
		*p = nil
		return nil
	}
	if c != '[' {
		return d.fail("expected array of numbers")
	}
	if err := d.push(); err != nil {
		return err
	}
	defer d.pop()
	d.pos++
	c, err = d.next()
	if err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		*p = []float64{}
		return nil
	}
	// Same shape as decodeVector: collect on the stack, allocate once.
	var buf [decodeStackElems]float64
	out := buf[:0]
	for {
		c, err = d.next()
		if err != nil {
			return err
		}
		if c == 'n' {
			// null array element decodes as the zero value.
			if err := d.expectLiteral("null"); err != nil {
				return err
			}
			out = append(out, 0)
		} else {
			var f float64
			if err := d.decodeFloat64(&f); err != nil {
				return err
			}
			out = append(out, f)
		}
		c, err = d.next()
		if err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
		case ']':
			d.pos++
			fs := make([]float64, len(out))
			copy(fs, out)
			*p = fs
			return nil
		default:
			return d.fail("expected ',' or ']' in array")
		}
	}
}

// decodeStackElems is how many elements decodeVector and decodeFloatSlice
// collect on the stack before spilling: wider than any schema in the paper.
const decodeStackElems = 16

// decodeInt64 parses a JSON number with integer syntax (strconv.ParseInt on
// the literal, as encoding/json does for integer fields — "1.0" and "1e2"
// are rejected). A null is a no-op, so set only fires on a real number.
func (d *decoder) decodeInt64(set func(int64)) error {
	return d.decodeInt64Nullable(set)
}

func (d *decoder) decodeInt64Nullable(set func(int64)) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.expectLiteral("null")
	}
	lit, err := d.numberLiteral()
	if err != nil {
		return err
	}
	v, perr := strconv.ParseInt(string(lit), 10, 64)
	if perr != nil {
		return fmt.Errorf("sync: decode message: cannot unmarshal number %s into integer field", lit)
	}
	set(v)
	return nil
}

func (d *decoder) decodeFloat64(p *float64) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.expectLiteral("null")
	}
	lit, err := d.numberLiteral()
	if err != nil {
		return err
	}
	v, perr := strconv.ParseFloat(string(lit), 64)
	if perr != nil {
		return fmt.Errorf("sync: decode message: cannot unmarshal number %s into float field", lit)
	}
	*p = v
	return nil
}

func (d *decoder) decodeBool(p *bool) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	switch c {
	case 't':
		if err := d.expectLiteral("true"); err != nil {
			return err
		}
		*p = true
		return nil
	case 'f':
		if err := d.expectLiteral("false"); err != nil {
			return err
		}
		*p = false
		return nil
	case 'n':
		return d.expectLiteral("null")
	}
	return d.fail("expected boolean")
}

// decodeString parses a JSON string into a Go string that shares nothing
// with the input (a fresh copy, or the link cache's earlier one); null is a
// no-op (set not called), any other value errors, mirroring encoding/json
// decoding into a string field.
func (d *decoder) decodeString(set func(string)) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.expectLiteral("null")
	}
	if c != '"' {
		return d.fail("expected string")
	}
	b, err := d.decodeStringBytes()
	if err != nil {
		return err
	}
	set(d.cache.str(b))
	return nil
}

// numberLiteral consumes a syntactically-valid JSON number and returns its
// raw bytes.
func (d *decoder) numberLiteral() ([]byte, error) {
	start := d.pos
	if !d.eof() && d.peek() == '-' {
		d.pos++
	}
	switch {
	case d.eof():
		return nil, d.fail("truncated number")
	case d.peek() == '0':
		d.pos++
	case d.peek() >= '1' && d.peek() <= '9':
		for !d.eof() && d.peek() >= '0' && d.peek() <= '9' {
			d.pos++
		}
	default:
		return nil, d.fail("invalid number")
	}
	if !d.eof() && d.peek() == '.' {
		d.pos++
		if d.eof() || d.peek() < '0' || d.peek() > '9' {
			return nil, d.fail("truncated fraction")
		}
		for !d.eof() && d.peek() >= '0' && d.peek() <= '9' {
			d.pos++
		}
	}
	if !d.eof() && (d.peek() == 'e' || d.peek() == 'E') {
		d.pos++
		if !d.eof() && (d.peek() == '+' || d.peek() == '-') {
			d.pos++
		}
		if d.eof() || d.peek() < '0' || d.peek() > '9' {
			return nil, d.fail("truncated exponent")
		}
		for !d.eof() && d.peek() >= '0' && d.peek() <= '9' {
			d.pos++
		}
	}
	return d.data[start:d.pos], nil
}

// decodeStringBytes consumes a JSON string (cursor on the opening quote) and
// returns its unescaped contents. When the string needs no unescaping the
// returned slice aliases d.data — callers copy before retaining. Escape
// handling matches encoding/json's unquote: \uXXXX with surrogate pairing,
// lone surrogates and invalid UTF-8 become U+FFFD.
func (d *decoder) decodeStringBytes() ([]byte, error) {
	if d.eof() || d.peek() != '"' {
		return nil, d.fail("expected string")
	}
	d.pos++
	start := d.pos
	// Fast path: scan for a clean span (no escapes, no control bytes, valid
	// UTF-8).
	i := d.pos
	for i < len(d.data) {
		c := d.data[i]
		if c == '"' {
			out := d.data[start:i]
			d.pos = i + 1
			return out, nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(d.data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	// Slow path: build the unescaped form.
	out := append([]byte(nil), d.data[start:i]...) //lint:allow hotalloc unescape slow path, reached only by strings containing escapes
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out, nil
		case c < 0x20:
			d.pos = i
			return nil, d.fail("control character in string")
		case c == '\\':
			i++
			if i >= len(d.data) {
				d.pos = i
				return nil, d.fail("truncated escape")
			}
			switch d.data[i] {
			case '"', '\\', '/':
				out = append(out, d.data[i])
				i++
			case 'b':
				out = append(out, '\b')
				i++
			case 'f':
				out = append(out, '\f')
				i++
			case 'n':
				out = append(out, '\n')
				i++
			case 'r':
				out = append(out, '\r')
				i++
			case 't':
				out = append(out, '\t')
				i++
			case 'u':
				r := getu4(d.data[i-1:])
				if r < 0 {
					d.pos = i
					return nil, d.fail("invalid \\u escape")
				}
				i += 5
				if utf16.IsSurrogate(r) {
					r1 := getu4(d.data[i:])
					if dec := utf16.DecodeRune(r, r1); dec != utf8.RuneError {
						i += 6
						out = utf8.AppendRune(out, dec)
						break
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
			default:
				d.pos = i
				return nil, d.fail("invalid escape character")
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			// Invalid UTF-8 bytes each decode to U+FFFD (size 1).
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.pos = len(d.data)
	return nil, d.fail("unterminated string")
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

// skipValue consumes one syntactically-valid JSON value of any shape
// (unknown fields), enforcing the same nesting-depth limit as the scanner.
func (d *decoder) skipValue() error {
	c, err := d.next()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		if err := d.push(); err != nil {
			return err
		}
		defer d.pop()
		d.pos++
		c, err = d.next()
		if err != nil {
			return err
		}
		if c == '}' {
			d.pos++
			return nil
		}
		for {
			c, err = d.next()
			if err != nil {
				return err
			}
			if c != '"' {
				return d.fail("expected object key")
			}
			if _, err := d.decodeStringBytes(); err != nil {
				return err
			}
			c, err = d.next()
			if err != nil {
				return err
			}
			if c != ':' {
				return d.fail("expected ':' after object key")
			}
			d.pos++
			if err := d.skipValue(); err != nil {
				return err
			}
			c, err = d.next()
			if err != nil {
				return err
			}
			switch c {
			case ',':
				d.pos++
			case '}':
				d.pos++
				return nil
			default:
				return d.fail("expected ',' or '}' in object")
			}
		}
	case '[':
		if err := d.push(); err != nil {
			return err
		}
		defer d.pop()
		d.pos++
		c, err = d.next()
		if err != nil {
			return err
		}
		if c == ']' {
			d.pos++
			return nil
		}
		for {
			if err := d.skipValue(); err != nil {
				return err
			}
			c, err = d.next()
			if err != nil {
				return err
			}
			switch c {
			case ',':
				d.pos++
			case ']':
				d.pos++
				return nil
			default:
				return d.fail("expected ',' or ']' in array")
			}
		}
	case '"':
		_, err := d.decodeStringBytes()
		return err
	case 't':
		return d.expectLiteral("true")
	case 'f':
		return d.expectLiteral("false")
	case 'n':
		return d.expectLiteral("null")
	default:
		_, err := d.numberLiteral()
		return err
	}
}
