package sync

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"crowdfill/internal/model"
)

// encodeMessageJSON and decodeMessageJSON are the encoding/json reference
// implementations the hand-rolled codec is tested against (the wire-byte
// identity and decode parity tests, FuzzMessageDecode and
// FuzzCodecDifferential). They live with the tests: the shipped package
// carries one codec.
func encodeMessageJSON(m Message) ([]byte, error) { return json.Marshal(m) }

func decodeMessageJSON(data []byte) (Message, error) {
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return Message{}, fmt.Errorf("sync: decode message: %w", err)
	}
	return m, nil
}

// decodeMessage is DecodeMessageInto returning the message by value.
func decodeMessage(data []byte) (Message, error) {
	var m Message
	if err := DecodeMessageInto(data, &m); err != nil {
		return Message{}, err
	}
	return m, nil
}

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
		// (inside an unknown field, so only skip sees it), at the top level
		// and at a snapshot row's depth.
		`{"x":` + strings.Repeat(`[`, 9998) + strings.Repeat(`]`, 9998) + `}`,
		`{"x":` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `}`,
		`{"x":` + strings.Repeat(`[`, 10000) + strings.Repeat(`]`, 10000) + `}`,
		`{"x":` + strings.Repeat(`[`, 10001) + strings.Repeat(`]`, 10001) + `}`,
		`{"snapshot":{"rows":[{"x":` + strings.Repeat(`[`, 9996) + strings.Repeat(`]`, 9996) + `}]}}`,
		`{"snapshot":{"rows":[{"x":` + strings.Repeat(`[`, 9997) + strings.Repeat(`]`, 9997) + `}]}}`,
		// Integers are accumulated inline: the int64 boundaries on both sides,
		// digit runs that wrap a uint64 accumulator, signs and zeros, and the
		// 19-digit wall-clock ts NetServer stamps.
		`{"seq":-9223372036854775808}`,
		`{"seq":-9223372036854775809}`,
		`{"seq":12345678901234567890}`, // 20 digits: past int64, inside uint64
		`{"seq":18446744073709551617}`, // 2^64 + 1: a wrapped accumulator reads 1
		`{"seq":-18446744073709551617}`,
		`{"seq":1234567890123456789012345}`, // 25 digits
		`{"seq":99999999999999999999}`,      // 20 nines: the largest 20-digit run
		`{"seq":9999999999999999999}`,       // 19 nines: fits uint64, not int64
		`{"seq":-01}`,
		`{"seq":00}`,
		`{"seq":0}`,
		`{"seq":-1}`,
		`{"seq":+1}`,
		`{"seq":--1}`,
		`{"seq":0.0}`,
		`{"seq":-0e0}`,
		`{"seq":1E2}`,
		`{"seq":1x}`,
		`{"seq":1`,
		`{"seq":-`,
		`{"ts":1790996400123456789}`,
		`{"type":4,"vec":["key-1",null],"origin":"net-00002","worker":"s1","seq":4711,"ts":1790996400123456789}`,
		`{"col":9223372036854775808}`,
		`{"col":-9223372036854775808}`,
		`{"type":-9223372036854775809}`,
		`{"type":9223372036854775807}`,
		`{"snapshot":{"rows":[{"up":9223372036854775808}]}}`,
		`{"snapshot":{"rows":[{"down":-9223372036854775809}]}}`,
		`{"snapshot":{"rows":[{"up":9223372036854775807,"down":-9223372036854775808}]}}`,
		`{"snapshot":{"uh":{"a":9223372036854775808}}}`,
		`{"snapshot":{"dh":{"a":1.5}}}`,
		// Floats keep strconv on the validated literal.
		`{"estimates":{"upvote":-0}}`,
		`{"estimates":{"upvote":01}}`,
		`{"estimates":{"upvote":-}}`,
		`{"estimates":{"upvote":.5}}`,
		`{"estimates":{"upvote":5.}}`,
		`{"estimates":{"upvote":1e}}`,
		`{"estimates":{"upvote":1e-}}`,
		`{"estimates":{"upvote":1E+2,"downvote":-1e-400}}`,
		`{"estimates":{"upvote":"1"}}`,
		`{"estimates":{"upvote":true}}`,
		`{"estimates":{"perColumn":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]}}`, // spills the stack buffer
		// Keys are dispatched by length and first byte: look-alikes sharing
		// both with a field, prefixes and extensions of one, the empty key,
		// and the spellings only the fold match resolves — upper case, an
		// escape, U+017F (folds to s), U+212A inside an escape, invalid UTF-8.
		`{"tyqe":3}`,
		`{"vex":["a"]}`,
		`{"vel":"a"}`,
		`{"tz":5}`,
		`{"rox":"r"}`,
		`{"typ":3}`,
		`{"types":3}`,
		`{"":3}`,
		`{"":3,"type":4}`,
		`{"\u0074ype":3}`,
		`{"\u0054YPE":3}`,
		`{"ty\pe":3}`,
		"{\"\u017feq\":5}",
		`{"\u017feq":5}`,
		`{"wor\u212aer":"w"}`,
		"{\"ty\xffe\":3}",
		"{\"t\x01pe\":3}",
		`{"tYpE":3,"VEC":["a"],"NewRow":"n","ORIGIN":"o","Worker":"w","SEQ":1,"Ts":2,"AUTO":true,"COL":3,"VAL":"v"}`,
		`{"snapshot":{"ROWS":[{"ID":"r","VEC":["a"],"UP":1,"DOWN":2,"vec":["b"]}],"UH":{"a":1},"Dh":{"b":2},"UHVECS":{"a":["a"]},"dhvecs":{"b":["b"]}}}`,
		`{"snapshot":{"type":1,"row":"r","id":"x","perColumn":[1]}}`, // other structs' names are unknown here
		`{"estimates":{"PERCOLUMN":[1],"UPVOTE":2,"Downvote":3,"upvotes":4,"up":5}}`,
		`{"snapshot":{"rows":[{"type":1,"uh":{"a":1},"i":"x","idx":"y"}]}}`,
		// A full vote with whitespace between every pair of tokens.
		" { \"type\" : 3 , \"vec\" : [ \"a\" , null , \"b\" ] , \"origin\" : \"net-00003\" , \"worker\" : \"w3\" , \"seq\" : 17 , \"ts\" : 1790996400123456789 , \"auto\" : true } ",
		"\t{\n\t\"type\"\t:\r\n5 ,\n\"snapshot\" : { \"rows\" : [ { \"id\" : \"r\" , \"vec\" : [ ] , \"up\" : 1 } , null ] , \"uh\" : { \"a\" : 1 , \"b\" : null } , \"uhVecs\" : { } } ,\"estimates\": { \"perColumn\" : [ 1 , null ] } }\n",
		"{\"type\":1\v}", // vertical tab is not JSON whitespace
		"{\"type\":\f1}",
		"{\u00a0\"type\":1}",
		`{ }`,
		`{"vec":[ ]}`,
		// Strings: clean runs ending in each slow branch, escapes after
		// multi-byte runes, a lone high surrogate before another escape,
		// truncated escapes, and lengths around the cache's 64-byte limit.
		`{"val":"é\n"}`,
		"{\"val\":\"é\xff\"}",
		"{\"val\":\"abc\xc3\"}",
		"{\"val\":\"\xe2\x82\"}",
		`{"val":"\u0000"}`,
		`{"val":"\ud83d\u0041"}`,
		`{"val":"\ud83d\ud83d\ude00"}`,
		`{"val":"\uD83D\uDE00"}`,
		`{"val":"\ud83d\n"}`,
		`{"val":"abc\`,
		`{"val":"abc\"`,
		`{"val":"\u12`,
		`{"val":"\ud83d\u12`,
		`{"val":"\ud83d\`,
		`{"val":"` + strings.Repeat("x", 64) + `"}`,
		`{"val":"` + strings.Repeat("x", 65) + `"}`,
		`{"val":"` + strings.Repeat("é", 32) + `"}`,
		`{"val":"","row":"","origin":"","vec":[""]}`,
		`{"vec":["a","b","c","d","e","f","g","h","i","j","k","l","m","n","o","p","q"]}`, // spills the stack buffer
		// A duplicate key decodes over what the first left, slices included:
		// encoding/json reuses the backing array element by element.
		`{"vec":["a"],"vec":null}`,
		`{"vec":["a","b"],"vec":[null]}`,
		`{"snapshot":{"rows":[{"id":"a","up":3}],"rows":[{"id":"c"}]}}`,
		`{"snapshot":{"rows":[{"id":"a","up":3},{"id":"b","down":2}],"rows":[{"id":"c"}],"rows":[null,{"vec":["x"]},{"up":1}]}}`,
		`{"snapshot":{"rows":[{"id":"a","up":3}],"rows":[],"rows":[{"down":1}]}}`,
		`{"snapshot":{"rows":[{"id":"a","up":3}],"rows":null,"rows":[{"down":1}]}}`,
		`{"snapshot":{"uh":{"a":1}},"snapshot":{"uh":{"b":2},"dh":{}}}`,
		`{"snapshot":{"uh":{"a":1}},"snapshot":null,"snapshot":{"dh":{"b":2}}}`,
		`{"snapshot":{"uh":{"a":1,"a":null},"uhVecs":{"a":["x"],"a":null}}}`,
		`{"estimates":{"perColumn":[1,2],"perColumn":[null]}}`,
		`{"estimates":{"perColumn":[1,2,3],"perColumn":[9],"perColumn":[null,null,null,null]}}`,
		`{"estimates":{"perColumn":[1,2],"perColumn":[],"perColumn":[null]}}`,
		`{"estimates":{"perColumn":[1,2],"perColumn":null,"perColumn":[null,7]}}`,
		`{"estimates":{"upvote":1},"estimates":{"downvote":2,"upvote":null}}`,
		`{"auto":true,"auto":null}`,
		`{"auto":true,"auto":false}`,
		`{"auto":tru}`,
		`{"auto":falsy}`,
		`{"auto":1}`,
	}
}

// TestCodecDecodeParity proves DecodeMessageInto accepts exactly what
// json.Unmarshal accepts and yields an identical Message when it does.
func TestCodecDecodeParity(t *testing.T) {
	for i, in := range codecDecodeInputs() {
		want, wantErr := decodeMessageJSON([]byte(in))
		got, gotErr := decodeMessage([]byte(in))
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
	var out []byte
	allocs = testing.AllocsPerRun(200, func() {
		out, _ = EncodeMessage(m)
	})
	if allocs != 1 && !raceEnabled {
		t.Errorf("EncodeMessage: %v allocs/op, want 1 (the result, at its exact length)", allocs)
	}
	if want := AppendMessage(nil, m); !bytes.Equal(out, want) || cap(out) != len(out) {
		t.Errorf("EncodeMessage = %q (cap %d), want %q at its exact length", out, cap(out), want)
	}
}

// TestEncodeScratchNotPinned: a message larger than the pool's cap (a join
// snapshot) is encoded correctly, and its scratch buffer does not go back to
// the pool to pin its size there.
func TestEncodeScratchNotPinned(t *testing.T) {
	big := Message{Type: MsgInsert, Worker: strings.Repeat("w", maxPooledEncode+1)}
	out, err := EncodeMessage(big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, AppendMessage(nil, big)) {
		t.Fatal("large message encoded differently from AppendMessage")
	}
	sp := encodeScratch.Get().(*[]byte)
	defer encodeScratch.Put(sp)
	if cap(*sp) > maxPooledEncode {
		t.Fatalf("pool holds a %d-byte scratch buffer after a large encode, want <= %d", cap(*sp), maxPooledEncode)
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
	// The decoder itself allocates nothing: a message that retains no string
	// or vector costs none.
	bare := []byte(`{"type":3,"seq":123,"ts":456789,"col":1}`)
	if allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeMessageInto(bare, &m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DecodeMessageInto of a string-free message: %v allocs/op, want 0", allocs)
	}
}

// decodeCacheSlot is the string-table slot of a string's bytes.
func decodeCacheSlot(b []byte) uint32 { return stringHash(b) % decodeCacheSlots }

// TestDecodeCacheAllocs pins the decoder's share of the message path's
// allocation budget: once a link's cache has seen a vote's strings and
// vector, decoding that vote allocates nothing; and the vote histories the
// replica then consults look a vector up for free.
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
	if allocs != 0 {
		t.Errorf("warm cached decode of a vote: %v allocs/op, want 0 (its strings and vector are the cache's)", allocs)
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

// TestDecodeCacheVoteAfterReplace: a vote on a row the link saw built
// decodes to the very vector the replace decoded — one backing array — and
// allocates nothing.
func TestDecodeCacheVoteAfterReplace(t *testing.T) {
	vec := model.VectorOf("Lionel Messi", "Argentina", "FW", "83", "")
	replace := AppendMessage(nil, Message{Type: MsgReplace, Row: "net-00001-4", NewRow: "net-00001-5", Vec: vec,
		Origin: "net-00001", Worker: "w1", Seq: 5, TS: 1790996400123456789, Col: 3, Val: "83"})
	vote := AppendMessage(nil, Message{Type: MsgDownvote, Vec: vec,
		Origin: "net-00001", Worker: "w1", Seq: 6, TS: 1790996400123456790})
	var cache DecodeCache
	var built, voted Message
	if err := cache.DecodeMessageInto(replace, &built); err != nil {
		t.Fatal(err)
	}
	if err := cache.DecodeMessageInto(vote, &voted); err != nil {
		t.Fatal(err)
	}
	if &voted.Vec[0] != &built.Vec[0] {
		t.Fatal("the vote decoded its own copy of the vector the replace left in the cache")
	}
	if !voted.Vec.Equal(vec) {
		t.Fatalf("vote vector = %v, want %v", voted.Vec, vec)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := cache.DecodeMessageInto(vote, &voted); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("vote after its replace: %v allocs/op, want 0", n)
	}
}

// TestDecodeCacheEstimateAllocs: an estimate decodes into storage the link
// cache owns — the same struct, and a column array reused once it is as wide
// as the payload — so after the link's first estimate one allocates nothing.
// The cache-less entry still gives every message a fresh struct and slice.
func TestDecodeCacheEstimateAllocs(t *testing.T) {
	est := Message{Type: MsgEstimate, Estimates: &Estimates{
		PerColumn: []float64{0.0123, 0.0456, 0.0789, 0.0101, 0.0202}, Upvote: 0.0033, Downvote: 0.0044}}
	data := AppendMessage(nil, est)
	var cache DecodeCache
	var m Message
	if err := cache.DecodeMessageInto(data, &m); err != nil {
		t.Fatal(err)
	}
	leased := m.Estimates
	if n := testing.AllocsPerRun(200, func() {
		if err := cache.DecodeMessageInto(data, &m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm cached decode of an estimate: %v allocs/op, want 0", n)
	}
	if m.Estimates != leased || !reflect.DeepEqual(m, est) {
		t.Fatalf("cached decode = %+v (estimates %p, first %p), want %+v in the cache's storage", m.Estimates, m.Estimates, leased, est.Estimates)
	}

	var a, b Message
	if err := DecodeMessageInto(data, &a); err != nil {
		t.Fatal(err)
	}
	if err := DecodeMessageInto(data, &b); err != nil {
		t.Fatal(err)
	}
	if a.Estimates == b.Estimates || &a.Estimates.PerColumn[0] == &b.Estimates.PerColumn[0] {
		t.Fatal("two cache-less decodes share estimate storage")
	}
}

// TestDecodeCacheVectorCollisions: vectors that share a slot — two distinct
// ones, two that differ only in which cell is null, two that differ only in
// whether a cell is null or "", and one that is a prefix of the other —
// decode through one cache, in
// alternation, to exactly what the cache-less decoder returns; evicting a
// vector changes no message that holds it, and a repeat is served from its
// slot.
func TestDecodeCacheVectorCollisions(t *testing.T) {
	decode := func(c *DecodeCache, v model.Vector) model.Vector {
		t.Helper()
		data := AppendMessage(nil, Message{Type: MsgDownvote, Vec: v, Origin: "net-00002"})
		var m, plain Message
		if err := c.DecodeMessageInto(data, &m); err != nil {
			t.Fatal(err)
		}
		if err := DecodeMessageInto(data, &plain); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, plain) {
			t.Fatalf("cached decode of %v = %#v, cache-less %#v", v, m, plain)
		}
		return m.Vec
	}
	// slotOf is the vector-table slot v lands in.
	slotOf := func(v model.Vector) int {
		t.Helper()
		var c DecodeCache
		got := decode(&c, v)
		for i, s := range c.vecs {
			if len(s) > 0 && &s[0] == &got[0] {
				return i
			}
		}
		t.Fatalf("%v was not interned", v)
		return -1
	}
	set := func(s string) model.Cell { return model.Cell{Set: true, Val: s} }
	pairs := []struct {
		name string
		a, b func(x string) model.Vector
	}{
		{"distinct",
			func(string) model.Vector { return model.Vector{set("alpha"), set("beta")} },
			func(x string) model.Vector { return model.Vector{set(x), set("beta")} }},
		{"null moved",
			func(x string) model.Vector { return model.Vector{set(x), {}} },
			func(x string) model.Vector { return model.Vector{{}, set(x)} }},
		{"null or empty",
			func(x string) model.Vector { return model.Vector{set(x), {}} },
			func(x string) model.Vector { return model.Vector{set(x), set("")} }},
		{"prefix",
			func(x string) model.Vector { return model.Vector{set(x), set("b")} },
			func(x string) model.Vector { return model.Vector{set(x)} }},
	}
	for _, p := range pairs {
		var a, b model.Vector
		for i := 0; ; i++ {
			x := "v" + strconv.Itoa(i)
			if a, b = p.a(x), p.b(x); !a.Equal(b) && slotOf(a) == slotOf(b) {
				break
			}
		}
		var c DecodeCache
		first := decode(&c, a)
		evictor := decode(&c, b)
		again := decode(&c, a)
		if !first.Equal(a) || !evictor.Equal(b) || !again.Equal(a) {
			t.Fatalf("%s: decoded %v, %v, %v from %v, %v, %v", p.name, first, evictor, again, a, b, a)
		}
		if &again[0] == &first[0] {
			t.Fatalf("%s: %v came back from a slot %v had taken", p.name, a, b)
		}
		if hit := decode(&c, a); &hit[0] != &again[0] {
			t.Fatalf("%s: a repeat of %v missed its slot", p.name, a)
		}
	}
}

// TestDecoderCoversEveryTaggedField walks the json tags of the four structs
// the decoder knows and decodes {"<tag>":<a valid value>} with the tag as
// written, upper-cased and \u-escaped, requiring the encoding/json result
// every time: a struct field added without teaching the decoder's dispatch
// would be skipped as an unknown key, and fails here instead.
func TestDecoderCoversEveryTaggedField(t *testing.T) {
	structs := []struct {
		typ  reflect.Type
		wrap string // where an object of this struct sits in a message
	}{
		{reflect.TypeOf(Message{}), `%s`},
		{reflect.TypeOf(Snapshot{}), `{"snapshot":%s}`},
		{reflect.TypeOf(model.Row{}), `{"snapshot":{"rows":[%s]}}`},
		{reflect.TypeOf(Estimates{}), `{"estimates":%s}`},
	}
	// A value of each field type that leaves the field visibly set.
	valueFor := func(ft reflect.Type) string {
		switch ft {
		case reflect.TypeOf(model.Vector{}):
			return `["a",null]`
		case reflect.TypeOf(&Snapshot{}):
			return `{"uh":{"k":1}}`
		case reflect.TypeOf(&Estimates{}):
			return `{"upvote":2}`
		case reflect.TypeOf([]model.Row{}):
			return `[{"id":"r"}]`
		case reflect.TypeOf(map[string]int{}):
			return `{"k":2}`
		case reflect.TypeOf(map[string]model.Vector{}):
			return `{"k":["a"]}`
		case reflect.TypeOf([]float64{}):
			return `[1.5,2]`
		}
		switch ft.Kind() {
		case reflect.Int, reflect.Int64:
			return `7`
		case reflect.Float64:
			return `1.5`
		case reflect.String:
			return `"x"`
		case reflect.Bool:
			return `true`
		}
		t.Fatalf("no sample value for a field of type %v: teach this test (and the decoder) the new type", ft)
		return ""
	}
	escape := func(tag string) string {
		var sb strings.Builder
		for _, r := range tag {
			fmt.Fprintf(&sb, `\u%04x`, r)
		}
		return sb.String()
	}
	for _, st := range structs {
		for i := 0; i < st.typ.NumField(); i++ {
			f := st.typ.Field(i)
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if tag == "" || tag == "-" {
				t.Fatalf("%v.%s has no json name", st.typ, f.Name)
			}
			for _, key := range []string{tag, strings.ToUpper(tag), escape(tag)} {
				in := fmt.Sprintf(st.wrap, `{"`+key+`":`+valueFor(f.Type)+`}`)
				want, err := decodeMessageJSON([]byte(in))
				if err != nil {
					t.Fatalf("%s: reference rejects the probe: %v", in, err)
				}
				empty, _ := decodeMessageJSON([]byte(fmt.Sprintf(st.wrap, `{}`)))
				if reflect.DeepEqual(want, empty) {
					t.Fatalf("%s: the probe sets nothing, so it cannot tell a decoded field from a skipped one", in)
				}
				got, err := decodeMessage([]byte(in))
				if err != nil {
					t.Errorf("%s: %v", in, err)
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %v.%s not decoded\n got: %#v\nwant: %#v", in, st.typ, f.Name, got, want)
				}
			}
		}
	}
}

// TestStringScanSlotIsDecodeCacheSlot: the hash the string scan computes on
// its way to the closing quote must be stringHash of the decoded bytes —
// through the clean-ASCII loop and through every unquote branch — so a
// string's slot, and the hash of every vector it is a cell of, keep
// depending on its bytes alone. Every quote of every corpus input is tried
// as the start of a string.
func TestStringScanSlotIsDecodeCacheSlot(t *testing.T) {
	inputs := codecDecodeInputs()
	for _, m := range codecMessages() {
		inputs = append(inputs, string(AppendMessage(nil, m)))
	}
	scanned := 0
	for _, in := range inputs {
		data := []byte(in)
		for i := range data {
			if data[i] != '"' {
				continue
			}
			d := decoder{data: data, pos: i}
			b, h := d.string(true)
			if d.err != nil {
				continue
			}
			scanned++
			if want := stringHash(b); h != want {
				t.Fatalf("string at offset %d of %.60q decodes to %q: scan computed hash %#x, stringHash %#x", i, in, b, h, want)
			}
		}
	}
	if scanned < 500 {
		t.Fatalf("only %d strings scanned: the corpus no longer exercises the scan", scanned)
	}
}

// TestCodecDecodeErrorsCarryOffset: every rejection — a type mismatch or a
// value out of range as much as broken syntax — wraps errSyntax and says
// where the input broke, so a rejected inbound message can be located from
// the log line.
func TestCodecDecodeErrorsCarryOffset(t *testing.T) {
	for in, offset := range map[string]string{
		`{"seq":1.0}`:                    "offset 8",
		`{"seq":9223372036854775808}`:    "offset 7",
		`{"ts":01}`:                      "offset 7",
		`{"type":"1"}`:                   "offset 8",
		`{"estimates":{"upvote":1e400}}`: "offset 23",
		`{"estimates":{"upvote":"x"}}`:   "offset 23",
		`{"val":"a` + "\x01" + `"}`:      "offset 9",
		`{"row":1}`:                      "offset 7",
		`{"type":1} x`:                   "offset 11",
	} {
		_, err := decodeMessage([]byte(in))
		if !errors.Is(err, errSyntax) {
			t.Errorf("%q: error %v does not wrap errSyntax", in, err)
		} else if !strings.HasSuffix(err.Error(), offset) {
			t.Errorf("%q: error %q, want it to end in %q", in, err, offset)
		}
	}
}

// BenchmarkDecodeMessage prices the decoder on the payloads that make up
// steady-state traffic (vote, replace, estimate), on the toggle the fanout64
// and burst64 workloads broadcast — a partial-row downvote stamped by
// NetServer: null cells, a net-000NN origin, a 19-digit wall-clock ts — and
// on the ≈ 250-row snapshot a late joiner of table200 loads; each through the
// plain entry (cold: every string and vector is a fresh copy) and through a
// link cache that has seen it (warm). replace+vote is the hit a live link
// sees: one op decodes a replace that builds a row with a value new to the
// link and then a vote on that value, cycling through more values than the
// cache has vector slots, so the replace's vector misses and the vote's hits.
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
		{"fanout-toggle", Message{Type: MsgDownvote, Vec: model.VectorOf("key-1", ""),
			Origin: "net-00002", Worker: "s1", Seq: 4711, TS: 1790996400123456789}},
		{"snapshot", Message{Type: MsgSnapshot, Snapshot: benchSnapshot(250)}},
	}
	pairs := make([][2][]byte, 4*decodeVecSlots)
	for i := range pairs {
		v := model.VectorOf("Player "+strconv.Itoa(i), "Argentina", "FW", "83", strconv.Itoa(i%40))
		pairs[i] = [2][]byte{
			AppendMessage(nil, Message{Type: MsgReplace, Row: model.RowID("net-00003-" + strconv.Itoa(2*i)),
				NewRow: model.RowID("net-00003-" + strconv.Itoa(2*i+1)), Vec: v,
				Origin: "net-00003", Worker: "worker3", Seq: int64(2 * i), TS: 123456789, Col: 4, Val: v[4].Val}),
			AppendMessage(nil, Message{Type: MsgUpvote, Vec: v, Origin: "net-00004", Worker: "worker4", Seq: int64(2*i + 1), TS: 123456790}),
		}
	}
	for _, mode := range []string{"cold", "warm"} {
		b.Run("replace+vote/"+mode, func(b *testing.B) {
			decode := DecodeMessageInto
			if mode == "warm" {
				var cache DecodeCache
				for _, p := range pairs {
					_ = cache.DecodeMessageInto(p[0], new(Message))
				}
				decode = cache.DecodeMessageInto
			}
			var m Message
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, data := range pairs[i%len(pairs)] {
					if err := decode(data, &m); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
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

// benchSnapshot builds a join snapshot of n five-column rows drawn from a
// small pool of values, a third of them voted on, with the vote histories
// that go with them.
func benchSnapshot(n int) *Snapshot {
	s := &Snapshot{UH: map[string]int{}, DH: map[string]int{}, UHVecs: map[string]model.Vector{}, DHVecs: map[string]model.Vector{}}
	countries := []string{"Argentina", "Brazil", "Germany", "Spain", "France", "Italy", "Portugal"}
	positions := []string{"FW", "MF", "DF", "GK"}
	for i := 0; i < n; i++ {
		v := model.VectorOf("Player "+strconv.Itoa(i), countries[i%len(countries)], positions[i%len(positions)],
			strconv.Itoa(40+i%60), strconv.Itoa(i%40))
		r := model.Row{ID: model.RowID("net-0000" + strconv.Itoa(1+i%5) + "-" + strconv.Itoa(i)), Vec: v}
		switch i % 3 {
		case 0:
			r.Up = 2
			s.UH[v.Encode()], s.UHVecs[v.Encode()] = 2, v
		case 1:
			r.Down = 1
			s.DH[v.Encode()], s.DHVecs[v.Encode()] = 1, v
		}
		s.Rows = append(s.Rows, r)
	}
	return s
}
