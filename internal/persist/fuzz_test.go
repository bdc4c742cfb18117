package persist

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord hammers the envelope decoder with arbitrary bytes:
// it must never panic, and any input it accepts must re-encode to a
// byte-identical envelope (the decoder admits only canonical forms).
func FuzzDecodeRecord(f *testing.F) {
	seed, err := EncodeRecord(Record{Kind: KindEngine, Key: "eng|abc", CostSec: 1.25, Payload: []byte(`{"a":1}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	env, err := EncodeRecord(Record{Kind: KindLayerContextCol, Key: "ctx|abc|def", CostSec: 0.5, Payload: []byte("CTXC")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env)
	f.Add([]byte("CWS1 not a record"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		out, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %+v: %v", rec, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted non-canonical envelope:\n in  %x\n out %x", data, out)
		}
	})
}
