package sync

import (
	"crowdfill/internal/model"

	"bytes"
	"reflect"
	"testing"
)

// FuzzMessageDecode checks that the wire codec never panics on arbitrary
// input and that decoding is stable: any input that decodes must survive an
// encode → decode round trip with an identical re-encoding (the trace relies
// on this to replay byte-identically).
func FuzzMessageDecode(f *testing.F) {
	seed := []Message{
		{Type: MsgInsert, Row: "r1", NewRow: "r1"},
		{Type: MsgReplace, Row: "r1", Vec: model.VectorOf("a", ""), Worker: "w1", Seq: 7, TS: 42},
		{Type: MsgUpvote, Vec: model.VectorOf("", "b"), Auto: true},
		{Type: MsgEstimate, Estimates: &Estimates{PerColumn: []float64{0.1}, Upvote: 0.02}},
		{Type: MsgSnapshot, Snapshot: &Snapshot{UH: map[string]int{"a|b": 2}}},
	}
	for _, m := range seed {
		data, err := EncodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"type":99,"row":"?"}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			// Malformed input is rejected, not round-tripped — but the
			// hand-rolled decoder must reject exactly what the reference
			// json decoder rejects.
			if _, jerr := decodeMessageJSON(data); jerr == nil {
				t.Fatalf("codec rejected input json.Unmarshal accepts: %v", err)
			}
			return
		}
		if jm, jerr := decodeMessageJSON(data); jerr != nil {
			t.Fatalf("codec accepted input json.Unmarshal rejects: %v", jerr)
		} else if !reflect.DeepEqual(m, jm) {
			t.Fatalf("codec and json decode disagree:\ncodec: %#v\n json: %#v", m, jm)
		}
		enc, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		if jenc, jerr := encodeMessageJSON(m); jerr != nil || !bytes.Equal(enc, jenc) {
			t.Fatalf("codec and json encodings differ:\ncodec: %s\n json: %s (err=%v)", enc, jenc, jerr)
		}
		m2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		enc2, err := EncodeMessage(m2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("unstable round trip:\n first: %s\nsecond: %s", enc, enc2)
		}
	})
}

// FuzzCodecDifferential drives the hand-rolled codec — its plain entry and
// the link-cache entry — and the encoding/json reference over the same
// arbitrary input: accept/reject verdicts must match, accepted inputs must
// decode to identical messages, and re-encoding both must yield identical
// wire bytes. This is the standing proof that the
// codec swap cannot change what any peer observes on the wire.
func FuzzCodecDifferential(f *testing.F) {
	for _, m := range codecMessages() {
		if data, err := encodeMessageJSON(m); err == nil {
			f.Add(data)
		}
	}
	for _, in := range codecDecodeInputs() {
		f.Add([]byte(in))
	}
	// Repeated vectors: rows and history entries that carry one value, the
	// same cells with a null moved or turned into "", and a duplicate key.
	f.Add([]byte(`{"type":5,"snapshot":{"rows":[{"id":"r1","vec":["a",null,"b"]},{"id":"r2","vec":["a",null,"b"]},` +
		`{"id":"r3","vec":["a","b",null]},{"id":"r4","vec":["a","","b"]}],"uh":{"k":1},"dh":{"k":2},` +
		`"uhVecs":{"k":["a",null,"b"]},"dhVecs":{"k":["a",null,"b"],"j":[null,"a","b"]}}}`))
	f.Add([]byte(`{"type":4,"vec":["a",null,"b"],"vec":["a",null,"b"],"origin":"a"}`))
	// Estimates in sequence through the one cache, each decoding into the
	// storage the one before left: a wide payload, then narrower ones whose
	// nulls and duplicate keys must read zeros where that one left figures,
	// then [], an absent perColumn, and a duplicate "estimates" key.
	f.Add([]byte(`{"type":7,"estimates":{"perColumn":[1,2,3,4,5,6],"upvote":7,"downvote":8}}`))
	f.Add([]byte(`{"type":7,"estimates":{"perColumn":[null,9,null],"upvote":null}}`))
	f.Add([]byte(`{"type":7,"estimates":{"perColumn":[9],"perColumn":[null,null,null,null]}}`))
	f.Add([]byte(`{"type":7,"estimates":{"perColumn":[]}}`))
	f.Add([]byte(`{"type":7,"estimates":{"downvote":3}}`))
	f.Add([]byte(`{"type":7,"estimates":{"perColumn":[1,2],"upvote":1},"estimates":{"perColumn":[null,null,5],"downvote":2}}`))
	f.Add([]byte(`{"type":7,"estimates":{"perColumn":[1,2,3]},"estimates":null,"estimates":{"perColumn":[null,null]}}`))
	// One cache for the whole run, as on a link: later inputs meet the
	// strings and vectors earlier ones left behind, in their slots or in the
	// way.
	var cache DecodeCache
	f.Fuzz(func(t *testing.T, data []byte) {
		jm, jerr := decodeMessageJSON(data)
		var m Message
		cerr := DecodeMessageInto(data, &m)
		if (jerr == nil) != (cerr == nil) {
			t.Fatalf("verdict mismatch on %q: json err=%v, codec err=%v", data, jerr, cerr)
		}
		// The cached entry, twice (first sight, then hits), out of a buffer
		// that is scribbled over before the result is read.
		for pass := 0; pass < 2; pass++ {
			buf := append([]byte(nil), data...)
			var cm Message
			cachedErr := cache.DecodeMessageInto(buf, &cm)
			for i := range buf {
				buf[i] = '#'
			}
			if (cachedErr == nil) != (cerr == nil) {
				t.Fatalf("verdict mismatch on %q (pass %d): plain err=%v, cached err=%v", data, pass, cerr, cachedErr)
			}
			if cerr == nil && !reflect.DeepEqual(cm, m) {
				t.Fatalf("cached decode mismatch on %q (pass %d):\ncached: %#v\n plain: %#v", data, pass, cm, m)
			}
		}
		if jerr != nil {
			return
		}
		if !reflect.DeepEqual(m, jm) {
			t.Fatalf("decode mismatch on %q:\ncodec: %#v\n json: %#v", data, m, jm)
		}
		jenc, jerr := encodeMessageJSON(jm)
		if jerr != nil {
			t.Fatalf("reference re-encode failed: %v", jerr)
		}
		cenc := AppendMessage(nil, m)
		if !bytes.Equal(cenc, jenc) {
			t.Fatalf("re-encode mismatch on %q:\ncodec: %s\n json: %s", data, cenc, jenc)
		}
	})
}
