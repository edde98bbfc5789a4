package flow

import (
	"bytes"
	"testing"

	"repro/internal/schema"
)

// FuzzDecodeRoundTrip drives arbitrary bytes through the flow
// serializer. Two properties: Decode never panics (hostile catalog
// files are rejected with an error), and any flow Decode accepts
// re-encodes stably — Encode∘Decode is the identity on Encode's image.
func FuzzDecodeRoundTrip(f *testing.F) {
	s := schema.Full()
	// Seed with a real encoding: an expanded flow exercises deps,
	// original marks and next-ID bookkeeping.
	seedFlow := New(s, nil)
	perf := seedFlow.MustAdd("Performance")
	if err := seedFlow.ExpandDown(perf, false); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := seedFlow.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"next":1,"nodes":[{"id":1,"type":"Performance"}]}`))
	f.Add([]byte(`{"nodes":[{"id":1,"type":"NoSuchType"}]}`))
	f.Add([]byte(`not json at all`))
	// IDs above the node-ID ceiling: each once sized a table from them.
	f.Add([]byte(`{"next":4000000000,"nodes":[{"id":1,"type":"Performance"}]}`))
	f.Add([]byte(`{"next":1,"nodes":[{"id":3000000000,"type":"Performance"}]}`))
	f.Add([]byte(`{"next":9223372036854775807,"nodes":[{"id":1,"type":"Performance"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := Decode(bytes.NewReader(data), s, nil)
		if err != nil {
			return // invalid input must be rejected, never panic
		}
		var enc1 bytes.Buffer
		if err := fl.Encode(&enc1); err != nil {
			t.Fatalf("re-encoding a decoded flow: %v", err)
		}
		fl2, err := Decode(bytes.NewReader(enc1.Bytes()), s, nil)
		if err != nil {
			t.Fatalf("decoding our own encoding: %v\n%s", err, enc1.Bytes())
		}
		var enc2 bytes.Buffer
		if err := fl2.Encode(&enc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("encode/decode/encode unstable:\n--- first ---\n%s\n--- second ---\n%s",
				enc1.Bytes(), enc2.Bytes())
		}
	})
}
