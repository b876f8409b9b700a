package ior

import "testing"

// FuzzIORUnmarshal runs the object-reference decoder over arbitrary bytes:
// nothing may panic, a decoded reference must survive a Marshal/Unmarshal
// round trip, and the readers of its tagged components (FTGroup,
// PrimaryIndex) must take whatever it holds.
func FuzzIORUnmarshal(f *testing.F) {
	f.Add(Marshal(New("IDL:repro/Bank:1.0", "host7", 1234, []byte{0, 1, 2, 0xFF})))
	f.Add(Marshal(sampleGroup()))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := Unmarshal(b)
		if err != nil {
			return
		}
		again, err := Unmarshal(Marshal(r))
		if err != nil {
			t.Fatalf("re-marshalled reference does not decode: %v", err)
		}
		if !again.Equal(r) {
			t.Fatalf("round trip changed the reference:\n got %+v\nwant %+v", again, r)
		}
		_, _ = r.FTGroup()
		_ = r.PrimaryIndex()
	})
}
