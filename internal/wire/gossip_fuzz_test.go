package wire_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/wire"
)

// fuzzSelf is the fuzzed table's own address; seeds name it so claims
// about the table's own node (refutation) are exercised too. The two
// crashers found at the target's introduction — an order-dependent
// refutation and an incarnation overflow — replay from
// testdata/fuzz/FuzzGossipDigest.
const fuzzSelf = "127.0.0.1:9000"

// FuzzGossipDigest drives hostile bytes through the gossip plane's
// accept path — strict decode, then GossipRequest.Validate — and merges
// every accepted digest into a fresh gossip table. Nothing may panic,
// merging the same digest again must change nothing, and the (Incarnation,
// State) each address ends with must not depend on the order two digests
// arrive in.
func FuzzGossipDigest(f *testing.F) {
	for _, seed := range []string{
		`{"from":"127.0.0.1:9001","entries":[{"addr":"127.0.0.1:9001","incarnation":0,"beat":3,"state":"alive","capacity":2,"benchmarks":["gcc"]}]}`,
		`{"from":"127.0.0.1:9001","entries":[{"addr":"127.0.0.1:9002","incarnation":1,"beat":0,"state":"suspect"},{"addr":"127.0.0.1:9002","incarnation":1,"beat":7,"state":"alive"}]}`,
		`{"from":"127.0.0.1:9001","entries":[{"addr":"127.0.0.1:9000","incarnation":4,"beat":0,"state":"dead"}]}`,
		`{"from":"127.0.0.1:9001","entries":[{"addr":"[::1]:9003","incarnation":2,"beat":1,"state":"dead"}]}`,
		`{"from":"127.0.0.1:9001","entries":[{"addr":"evil","state":"alive"}]}`,
		`{"from":"127.0.0.1:9001","entries":[{"addr":"127.0.0.1:9004","state":"alive","queue_depths":{"gcc":-1}}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wire.GossipRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || req.Validate() != nil {
			return
		}
		// Idempotence: a second merge of the same digest changes nothing.
		tb := fuzzTable()
		tb.Merge(req.Entries)
		if n := tb.Merge(req.Entries); n != 0 {
			t.Fatalf("re-merging the same digest changed %d entries", n)
		}
		// Order independence: split the digest in two and merge the
		// halves both ways round.
		half := len(req.Entries) / 2
		a, b := req.Entries[:half], req.Entries[half:]
		ab, ba := fuzzTable(), fuzzTable()
		ab.Merge(a)
		ab.Merge(b)
		ba.Merge(b)
		ba.Merge(a)
		if got, want := versions(ab), versions(ba); !equalVersions(got, want) {
			t.Fatalf("merge order changed the table:\n  a then b %v\n  b then a %v", got, want)
		}
	})
}

// fuzzTable is a fresh table on a frozen clock, so no entry ages
// between merges.
func fuzzTable() *gossip.Table {
	now := time.Unix(1000, 0)
	return gossip.New(gossip.Options{Self: fuzzSelf, Clock: func() time.Time { return now }})
}

// version is what the order-independence property compares per address.
type version struct {
	Incarnation uint64
	State       string
}

func versions(tb *gossip.Table) map[string]version {
	out := make(map[string]version)
	for _, e := range tb.Snapshot() {
		out[e.Addr] = version{e.Incarnation, e.State}
	}
	return out
}

func equalVersions(a, b map[string]version) bool {
	if len(a) != len(b) {
		return false
	}
	for addr, v := range a {
		if b[addr] != v {
			return false
		}
	}
	return true
}
