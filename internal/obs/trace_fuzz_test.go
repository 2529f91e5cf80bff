package obs

import (
	"strings"
	"testing"
)

// FuzzTraceparent drives ParseTraceparent, which reads every request's
// traceparent header and every adopted replica's recorded trace context,
// over arbitrary values. It must never panic, and an accepted value must
// be exactly the header's shape: version 00, a 32- and a 16-digit
// lowercase hex ID and 2 lowercase hex flag digits, dash-separated. The
// context it yields must be valid and survive a render-and-parse round
// trip unchanged.
func FuzzTraceparent(f *testing.F) {
	const (
		trace = "4bf92f3577b34da6a3ce929d0e0e4736"
		span  = "00f067aa0ba902b7"
	)
	f.Add("00-" + trace + "-" + span + "-01")
	f.Add("0-" + trace + "-" + span + "-01")
	f.Add("00-" + trace[1:] + "-" + span + "-01")
	f.Add("00-" + trace + "-" + span[1:] + "-01")
	f.Add("00-" + trace + "-" + span + "-1")
	f.Add(strings.ToUpper("00-" + trace + "-" + span + "-01"))
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("refused %q but returned %+v", s, sc)
			}
			return
		}
		if len(s) != 55 || !strings.HasPrefix(s, "00-") || s[35] != '-' || s[52] != '-' {
			t.Fatalf("accepted %q: not version 00 with 32-, 16- and 2-digit fields", s)
		}
		if strings.ToLower(s) != s {
			t.Fatalf("accepted %q: uppercase hex", s)
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as the invalid context %+v", s, sc)
		}
		back, ok := ParseTraceparent(sc.Traceparent())
		if !ok || back != sc {
			t.Fatalf("%q parsed to %+v, which renders %q and parses back to %+v (ok=%v)", s, sc, sc.Traceparent(), back, ok)
		}
	})
}
