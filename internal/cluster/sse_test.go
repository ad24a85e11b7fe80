package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/server"
)

// FuzzSSEReader hardens the reader the coordinator runs over a
// worker's event stream — input the coordinator does not control.
// Arbitrary bytes must never panic the reader and must end in an error
// after finitely many events, and whatever the front-end's WriteSSE
// emits must read back as the same event name and data. The seed
// corpus is under testdata/fuzz/FuzzSSEReader.
func FuzzSSEReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, name, data string) {
		r := newSSEReader(bytes.NewReader(stream))
		for n := 0; ; n++ {
			if _, err := r.next(); err != nil {
				break
			}
			if n > len(stream) {
				t.Fatalf("%d events from %d bytes", n, len(stream))
			}
		}

		if strings.ContainsAny(name, "\r\n") {
			return // event names are single-line identifiers
		}
		var buf bytes.Buffer
		if err := server.WriteSSE(&buf, name, data); err != nil {
			t.Fatalf("WriteSSE: %v", err)
		}
		ev, err := newSSEReader(&buf).next()
		if err != nil {
			t.Fatalf("reading back %q: %v", buf.String(), err)
		}
		want, _ := json.Marshal(data)
		if ev.name != name || !bytes.Equal(ev.data, want) {
			t.Fatalf("round trip of %q: got event %q data %q, want %q %q",
				buf.String(), ev.name, ev.data, name, want)
		}
	})
}
