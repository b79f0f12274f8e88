package sync

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"crowdfill/internal/model"
)

// codecMessages is the shared table of messages exercising every field,
// every omitempty boundary, string-escaping edge cases, and float rendering
// edge cases. Both the encoder identity test and the decoder parity test run
// over it.
func codecMessages() []Message {
	return []Message{
		{},
		{Type: MsgInsert, Row: "r1", NewRow: "r1"},
		{Type: MsgReplace, Row: "r1", NewRow: "r2", Vec: model.VectorOf("a", ""), Origin: "c1", Worker: "w1", Seq: 7, TS: 42, Col: 1, Val: "a"},
		{Type: MsgUpvote, Vec: model.VectorOf("", "b"), Auto: true},
		{Type: MsgDownvote, Vec: model.Vector{}},                        // empty vec → omitted
		{Type: MsgDone, Seq: -3, TS: -1, Col: -2},                       // negative ints survive omitempty
		{Type: MsgType(-7), Row: "?", Val: "x"},                         // unknown negative type
		{Type: MsgReplace, Vec: model.Vector{{}, {Set: true}}, Val: ""}, // unset + set-empty cells
		// String escaping: quotes, backslashes, control bytes, HTML escapes,
		// U+2028/U+2029, invalid UTF-8, multibyte runes.
		{Type: MsgInsert, Val: `quote " backslash \ slash /`},
		{Type: MsgInsert, Val: "tab\tnewline\ncr\rbell\x07null\x00"},
		{Type: MsgInsert, Val: "<script>&amp;</script>"},
		{Type: MsgInsert, Val: "line\u2028para\u2029sep"},
		{Type: MsgInsert, Val: "bad utf8 \xff\xfe mid \xc3\x28 end"},
		{Type: MsgInsert, Val: "héllo wörld 漢字 🙂"},
		{Type: MsgInsert, Row: model.RowID("key with \" and \\ and \x1f")},
		// Snapshots: nil and empty collections, multiple sorted map keys,
		// rows with nil and populated vectors.
		{Type: MsgSnapshot, Snapshot: &Snapshot{}},
		{Type: MsgSnapshot, Snapshot: &Snapshot{
			Rows:   []model.Row{},
			UH:     map[string]int{},
			DH:     map[string]int{},
			UHVecs: map[string]model.Vector{},
			DHVecs: map[string]model.Vector{},
		}},
		{Type: MsgSnapshot, Snapshot: &Snapshot{
			Rows: []model.Row{
				{ID: "r1", Vec: model.VectorOf("a", "b"), Up: 2, Down: 1},
				{ID: "r2"}, // nil vector encodes as []
				{ID: "r3", Vec: model.Vector{{}, {Set: true, Val: "x"}}, Up: -1},
			},
			UH:     map[string]int{"z": 1, "a": 2, "m": 3, "": 0},
			DH:     map[string]int{"1|a": -5},
			UHVecs: map[string]model.Vector{"z": model.VectorOf("z"), "a": nil, "m": {}},
			DHVecs: map[string]model.Vector{"1|a": {{Set: true, Val: "a"}}},
		}},
		// Estimates: float rendering boundaries for the ES6-style encoder.
		{Type: MsgEstimate, Estimates: &Estimates{}},
		{Type: MsgEstimate, Estimates: &Estimates{
			PerColumn: []float64{0, 1, -1, 0.1, 2.5, 1e-6, 9.9e-7, 1e-7, 1e20, 1e21, 1e22, -1e21,
				1e-21, 123456789.123456789, math.MaxFloat64, math.SmallestNonzeroFloat64,
				math.Copysign(0, -1), 3, 0.30000000000000004},
			Upvote:   1e-9,
			Downvote: -2.5e21,
		}},
		{Type: MsgEstimate, Estimates: &Estimates{PerColumn: []float64{}}},
	}
}

// TestCodecWireByteIdentity proves the append-based encoder emits exactly
// the bytes json.Marshal does, message by message.
func TestCodecWireByteIdentity(t *testing.T) {
	for i, m := range codecMessages() {
		want, err := encodeMessageJSON(m)
		if err != nil {
			t.Fatalf("message %d: reference encode: %v", i, err)
		}
		got := AppendMessage(nil, m)
		if !bytes.Equal(got, want) {
			t.Errorf("message %d: wire bytes differ\n got: %s\nwant: %s", i, got, want)
		}
		got2, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("message %d: EncodeMessage: %v", i, err)
		}
		if !bytes.Equal(got2, want) {
			t.Errorf("message %d: EncodeMessage differs from json.Marshal", i)
		}
	}
}

// TestCodecAppendPreservesPrefix checks AppendMessage really appends.
func TestCodecAppendPreservesPrefix(t *testing.T) {
	prefix := []byte("PREFIX")
	out := AppendMessage(append([]byte(nil), prefix...), Message{Type: MsgDone})
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("prefix clobbered: %s", out)
	}
	if string(out[len(prefix):]) != `{"type":6}` {
		t.Fatalf("appended bytes = %s", out[len(prefix):])
	}
}

// TestCodecEncodeNonFinite: json.Marshal rejects NaN/Inf; EncodeMessage must
// as well.
func TestCodecEncodeNonFinite(t *testing.T) {
	bad := []Message{
		{Type: MsgEstimate, Estimates: &Estimates{Upvote: math.NaN()}},
		{Type: MsgEstimate, Estimates: &Estimates{Downvote: math.Inf(1)}},
		{Type: MsgEstimate, Estimates: &Estimates{PerColumn: []float64{0, math.Inf(-1)}}},
	}
	for i, m := range bad {
		if _, err := encodeMessageJSON(m); err == nil {
			t.Fatalf("message %d: reference encoder accepted non-finite float", i)
		}
		if _, err := EncodeMessage(m); err == nil {
			t.Errorf("message %d: EncodeMessage accepted non-finite float", i)
		}
	}
}

// codecDecodeInputs are wire inputs — valid, degenerate, and malformed —
// whose decode behavior must match json.Unmarshal exactly: same
// accept/reject verdict, and identical resulting Message on accept.
func codecDecodeInputs() []string {
	return []string{
		// Well-formed messages.
		`{"type":1}`,
		`{"type":2,"row":"r1","newRow":"r2","vec":["a",null],"origin":"c","worker":"w","seq":7,"ts":42,"auto":true,"col":1,"val":"a"}`,
		`{"type":5,"snapshot":{"rows":[{"id":"r1","vec":["a"],"up":1,"down":0}],"uh":{"a":1},"dh":null,"uhVecs":{"a":["a"]},"dhVecs":null}}`,
		`{"type":7,"estimates":{"perColumn":[0.5,1e-9,2.5e21],"upvote":0.1,"downvote":0.2}}`,
		// Whitespace tolerance.
		" \t\r\n {\"type\" : 1 , \"row\" :\n\"r\" } \n",
		// Top-level null and null fields.
		`null`,
		`{"type":null,"row":null,"vec":null,"auto":null,"seq":null,"snapshot":null,"estimates":null}`,
		`{"vec":null}`, // pointer-receiver UnmarshalJSON on addressable field runs → empty non-nil Vector
		`{"snapshot":{"rows":null,"uh":{"k":null},"uhVecs":{"k":null}}}`,
		`{"estimates":{"perColumn":[1,null,3],"upvote":null}}`,
		`{"snapshot":{"rows":[null,{"id":"r"}]}}`, // null array element → zero Row
		// Unknown fields skipped, any value shape.
		`{"type":1,"bogus":{"deep":[1,"two",{"three":null},true]},"row":"r"}`,
		`{"unknown":"only"}`,
		// Case-insensitive fallback + exact-match priority + duplicate keys.
		`{"TYPE":3}`,
		`{"Type":3,"type":4}`,
		`{"type":4,"TYPE":3}`,
		`{"NEWROW":"x","newRow":"y"}`,
		`{"newrow":"z"}`,
		`{"type":1,"type":2}`, // duplicate key: last wins
		// Kelvin sign (U+212A) folds to 'k' under EqualFold — exercises the
		// non-ASCII fold path ("wor\u212aer" must match the "worker" field).
		"{\"wor\u212aer\":\"w\"}",
		// Number edge cases.
		`{"seq":-0}`,
		`{"seq":9223372036854775807}`,
		`{"seq":9223372036854775808}`,    // int64 overflow → error both sides
		`{"seq":1.0}`,                    // float syntax into int → error
		`{"seq":1e2}`,                    // exponent into int → error
		`{"ts":01}`,                      // leading zero → syntax error
		`{"estimates":{"upvote":1e400}}`, // ParseFloat range error
		`{"estimates":{"upvote":-1.5e-3}}`,
		`{"estimates":{"upvote":5}}`,
		// String edge cases: escapes, surrogates, lone surrogates, invalid
		// UTF-8, control chars.
		`{"val":"Aé三"}`,
		`{"val":"😀"}`,
		`{"val":"\ud83d"}`,
		`{"val":"\ud83dx"}`,
		`{"val":"\ude00\ud83dA"}`,
		`{"val":"\ud83d\ude00"}`, // escaped surrogate pair
		`{"val":"a\/b\"c\\d\be\ff\ng\rh\ti"}`,
		`{"val":"\x41"}`, // invalid escape
		`{"val":"\u12g4"}`,
		`{"val":"\u"}`,
		"{\"val\":\"raw\xffbytes\"}",
		"{\"val\":\"ctrl\x01char\"}", // raw control char in string → error
		`{"val":"unterminated`,
		// Wrong-type values into fields.
		`{"type":"1"}`,
		`{"row":1}`,
		`{"auto":"true"}`,
		`{"vec":{"a":1}}`,
		`{"vec":[1]}`,
		`{"vec":["a",["b"]]}`,
		`{"snapshot":[1]}`,
		`{"snapshot":{"rows":{"a":1}}}`,
		`{"snapshot":{"uh":[1]}}`,
		`{"snapshot":{"uh":{"a":"b"}}}`,
		`{"estimates":{"perColumn":["x"]}}`,
		// Structural syntax errors.
		``,
		` `,
		`not json`,
		`{`,
		`}`,
		`{}`,
		`{}x`,
		`{} ` + "\x00",
		`{"type":1,}`,
		`{,"type":1}`,
		`{"type" 1}`,
		`{"type":1 "row":"r"}`,
		`[{"type":1}]`,
		`"just a string"`,
		`123`,
		`true`,
		`nul`,
		`nullx`,
		`{"type":tru}`,
		`{"vec":["a",]}`,
		`{"vec":["a"`,
		`{"seq":}`,
		`{"seq":-}`,
		`{"seq":1.}`,
		`{"seq":1e}`,
		`{"seq":1e+}`,
		// Deep nesting just under and over json's 10000-depth scanner limit
		// (inside an unknown field, so only skipValue sees it).
		`{"x":` + strings.Repeat(`[`, 9998) + strings.Repeat(`]`, 9998) + `}`,
		`{"x":` + strings.Repeat(`[`, 10001) + strings.Repeat(`]`, 10001) + `}`,
	}
}

// TestCodecDecodeParity proves DecodeMessageInto accepts exactly what
// json.Unmarshal accepts and yields an identical Message when it does.
func TestCodecDecodeParity(t *testing.T) {
	for i, in := range codecDecodeInputs() {
		want, wantErr := decodeMessageJSON([]byte(in))
		got, gotErr := DecodeMessage([]byte(in))
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("input %d %.60q: verdict mismatch: json err=%v, codec err=%v", i, in, wantErr, gotErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("input %d %.60q: decoded message differs\n got: %#v\nwant: %#v", i, in, got, want)
		}
	}
}

// TestCodecDecodeDoesNotRetainInput: mutating the input buffer after decode
// must not change the decoded message — the transport reuses read buffers.
func TestCodecDecodeDoesNotRetainInput(t *testing.T) {
	data := []byte(`{"type":2,"row":"row-id","vec":["alpha","beta"],"val":"esc\nval","snapshot":{"uh":{"key":1},"uhVecs":{"key":["k"]}}}`)
	var m Message
	if err := DecodeMessageInto(data, &m); err != nil {
		t.Fatal(err)
	}
	before, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'Z'
	}
	after, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("decoded message aliases input buffer:\nbefore: %s\n after: %s", before, after)
	}
}

// TestCodecDecodeIntoResets: a reused target must not leak fields from the
// previous decode.
func TestCodecDecodeIntoResets(t *testing.T) {
	var m Message
	if err := DecodeMessageInto([]byte(`{"type":2,"row":"r","val":"v","auto":true,"snapshot":{}}`), &m); err != nil {
		t.Fatal(err)
	}
	if err := DecodeMessageInto([]byte(`{"type":1}`), &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, Message{Type: MsgInsert}) {
		t.Fatalf("stale fields survived reuse: %#v", m)
	}
}

// TestCodecEncodeAllocs: encoding into a pre-grown buffer allocates nothing
// for snapshot-free messages (the hot path: every op message).
func TestCodecEncodeAllocs(t *testing.T) {
	m := Message{Type: MsgReplace, Row: "r1", NewRow: "r2", Vec: model.VectorOf("a", "b"),
		Origin: "client-1", Worker: "w1", Seq: 123, TS: 456789, Col: 1, Val: "b"}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendMessage(buf[:0], m)
	})
	if allocs != 0 {
		t.Errorf("AppendMessage: %v allocs/op, want 0", allocs)
	}
}

// TestCodecDecodeAllocs: decoding a typical op message allocates only what
// the message retains (strings + one vector), bounded well below
// encoding/json's reflection machinery.
func TestCodecDecodeAllocs(t *testing.T) {
	data := []byte(`{"type":2,"row":"r1","newRow":"r2","vec":["a","b"],"origin":"client-1","worker":"w1","seq":123,"ts":456789,"col":1,"val":"b"}`)
	var m Message
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeMessageInto(data, &m); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 10
	if allocs > maxAllocs {
		t.Errorf("DecodeMessageInto: %v allocs/op, want <= %d", allocs, maxAllocs)
	}
}

// TestDecodeCacheAllocs pins the decoder's share of the message path's
// allocation budget: once a link's cache has seen a vote's strings, decoding
// that vote allocates its vector and nothing else; and the vote histories
// the replica then consults look a vector up for free.
func TestDecodeCacheAllocs(t *testing.T) {
	vote := Message{Type: MsgUpvote, Vec: model.VectorOf("Lionel Messi", "Argentina", "FW", "83", "37"),
		Origin: "net-00003", Worker: "worker3", Seq: 17, TS: 123456789}
	data := AppendMessage(nil, vote)
	var cache DecodeCache
	var m Message
	if err := cache.DecodeMessageInto(data, &m); err != nil { // first sight fills the slots
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := cache.DecodeMessageInto(data, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("warm cached decode of a vote: %v allocs/op, want 1 (the vector)", allocs)
	}
	if !reflect.DeepEqual(m, vote) {
		t.Fatalf("cached decode = %#v, want %#v", m, vote)
	}

	h := NewVoteHist()
	h.Inc(vote.Vec)
	if n := testing.AllocsPerRun(200, func() { h.Get(vote.Vec) }); n != 0 {
		t.Errorf("VoteHist.Get: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { h.Inc(vote.Vec) }); n != 0 {
		t.Errorf("VoteHist.Inc of a known vector: %v allocs/op, want 0", n)
	}
}

// TestDecodeCacheOwnsItsStrings: whatever the cache hands out — on first
// sight, on a hit, after a slot collision, or for a string too long to cache
// — is a private copy, so overwriting the read buffer the message came from
// changes neither the message nor what the cache serves next.
func TestDecodeCacheOwnsItsStrings(t *testing.T) {
	var cache DecodeCache
	decode := func(val string) Message {
		t.Helper()
		buf := AppendMessage(nil, Message{Type: MsgReplace, Row: "r1", NewRow: "r2", Vec: model.VectorOf(val, ""), Val: val})
		var m Message
		if err := cache.DecodeMessageInto(buf, &m); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'Z' // the transport reuses its lease immediately
		}
		if m.Val != val || m.Vec[0].Val != val || m.Row != "r1" || m.NewRow != "r2" {
			t.Fatalf("decoded %q as %#v", val, m)
		}
		return m
	}

	first := decode("alpha")
	hit := decode("alpha")
	if first.Val != "alpha" || hit.Val != "alpha" {
		t.Fatalf("scribbling over the buffer reached a decoded string: %q, %q", first.Val, hit.Val)
	}

	// Find a second value that lands in alpha's slot: it evicts alpha, and
	// alpha must come back intact afterwards.
	rival := ""
	for i := 0; rival == ""; i++ {
		if c := "rival-" + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + strings.Repeat("y", i/26); decodeCacheSlot([]byte(c)) == decodeCacheSlot([]byte("alpha")) {
			rival = c
		}
	}
	decode(rival)
	if got := cache.slots[decodeCacheSlot([]byte("alpha"))]; got != rival {
		t.Fatalf("slot holds %q after decoding its rival %q", got, rival)
	}
	decode("alpha")
	if first.Val != "alpha" || hit.Val != "alpha" {
		t.Fatalf("a slot collision changed an earlier message: %q, %q", first.Val, hit.Val)
	}

	// One byte past the limit: decoded correctly, never cached.
	long := strings.Repeat("L", decodeCacheMaxLen+1)
	decode(long)
	decode(long)
	for i, s := range cache.slots {
		if len(s) > decodeCacheMaxLen {
			t.Fatalf("slot %d caches a %d-byte string, limit %d", i, len(s), decodeCacheMaxLen)
		}
	}
	decode(strings.Repeat("M", decodeCacheMaxLen)) // at the limit: cached
	if got := cache.slots[decodeCacheSlot([]byte(strings.Repeat("M", decodeCacheMaxLen)))]; len(got) != decodeCacheMaxLen {
		t.Fatalf("a %d-byte string was not cached (slot holds %q)", decodeCacheMaxLen, got)
	}
}

// BenchmarkDecodeMessage prices the decoder on the three payloads that make
// up steady-state traffic, through the plain entry (cold: every string is a
// fresh copy) and through a link cache that has seen them (warm).
func BenchmarkDecodeMessage(b *testing.B) {
	vec := model.VectorOf("Lionel Messi", "Argentina", "FW", "83", "37")
	payloads := []struct {
		name string
		m    Message
	}{
		{"vote", Message{Type: MsgUpvote, Vec: vec, Origin: "net-00003", Worker: "worker3", Seq: 17, TS: 123456789}},
		{"replace", Message{Type: MsgReplace, Row: "net-00003-41", NewRow: "net-00003-42", Vec: vec,
			Origin: "net-00003", Worker: "worker3", Seq: 18, TS: 123456790, Col: 4, Val: "37"}},
		{"estimate", Message{Type: MsgEstimate, Estimates: &Estimates{
			PerColumn: []float64{0.0123, 0.0456, 0.0789, 0.0101, 0.0202}, Upvote: 0.0033, Downvote: 0.0044}}},
	}
	for _, p := range payloads {
		data := AppendMessage(nil, p.m)
		b.Run(p.name+"/cold", func(b *testing.B) {
			var m Message
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := DecodeMessageInto(data, &m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.name+"/warm", func(b *testing.B) {
			var cache DecodeCache
			var m Message
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cache.DecodeMessageInto(data, &m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
