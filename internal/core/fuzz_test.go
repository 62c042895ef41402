package core

import (
	"bytes"
	"testing"

	"pathfinder/internal/trace"
)

// FuzzLoadSession hammers the PFX1 session decoder with arbitrary bytes:
// it must reject garbage with an error — never panic, never allocate
// unboundedly — and any snapshot it accepts must reach a fixed point, so
// Save → Load → Save reproduces the first save byte for byte. An accepted
// snapshot must also be usable: the restored prefetcher takes one access
// to each restored stream, a one-block step that reconciles the stream's
// recorded neuron, and one to a fresh page, without panicking. Accesses
// are driven only when the snapshot's SNN hyper-parameters are the ones
// its PATHFINDER configuration builds: the SNN engine's own parameter
// domain is FuzzPresent's (internal/refmodel), and under pfdebug its
// invariant checks reject parameters no configuration produces.
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
		if built, err := New(p.Config()); err != nil || built.Network().Config() != p.Network().Config() {
			return
		}
		var accs []trace.Access
		for i := p.tt.order.Oldest(); i != 0 && len(accs) < 16; i = p.tt.order.Newer(i) {
			e := &p.tt.ents[i]
			off := e.lastOffset + 1
			if off == trace.BlocksPerPage {
				off = e.lastOffset - 1
			}
			accs = append(accs, trace.Access{PC: e.pc, Addr: e.page*trace.PageBytes + uint64(off)*trace.BlockBytes})
		}
		accs = append(accs, trace.Access{PC: 1, Addr: 1 << 40})
		for i, a := range accs {
			a.ID = uint64(i + 1)
			p.Advise(a, 2)
		}
	})
}
