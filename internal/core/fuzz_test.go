package core

import (
	"bytes"
	"testing"
)

// FuzzLoadSession hammers the PFX1 session decoder with arbitrary bytes:
// it must reject garbage with an error — never panic, never allocate
// unboundedly — and any snapshot it accepts must reach a fixed point, so
// Save → Load → Save reproduces the first save byte for byte.
func FuzzLoadSession(f *testing.F) {
	blob, saveLen := trainedSession(f)
	f.Add(blob)
	f.Add(blob[:saveLen])
	f.Add(blob[:len(blob)-5])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadSession(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := p.SaveSession(&first); err != nil {
			t.Fatalf("SaveSession after accepted load: %v", err)
		}
		q, err := LoadSession(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload of saved session: %v", err)
		}
		var second bytes.Buffer
		if err := q.SaveSession(&second); err != nil {
			t.Fatalf("re-SaveSession: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("SaveSession -> LoadSession -> SaveSession is not a fixed point")
		}
	})
}
