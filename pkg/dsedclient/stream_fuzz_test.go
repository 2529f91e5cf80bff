package dsedclient

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// cannedStream answers every job stream request with body, and cancels
// the stream's context once the body is drained: a body that ends
// without a final update then ends the stream at once, where a live
// stream would back off and reconnect.
type cannedStream struct {
	body   []byte
	cancel context.CancelFunc
}

func (c cannedStream) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(drained{bytes.NewReader(c.body), c.cancel}),
		Request:    r,
	}, nil
}

// drained calls done when its reader reports the end of the body.
type drained struct {
	r    io.Reader
	done func()
}

func (d drained) Read(p []byte) (int, error) {
	n, err := d.r.Read(p)
	if err != nil {
		d.done()
	}
	return n, err
}

// cannedStreamOf opens a stream over a single-endpoint client whose job
// stream answers body, bounded to fuzzMaxLine bytes a line.
func cannedStreamOf(body []byte) *Stream {
	ctx, cancel := context.WithCancel(context.Background())
	c := New("http://canned.invalid", WithHTTPClient(&http.Client{Transport: cannedStream{body, cancel}}))
	st := c.Stream(ctx, "job")
	st.maxLine = fuzzMaxLine
	return st
}

// fuzzMaxLine stands in for maxResponse as the fuzzed stream's line
// bound, so an over-long line costs kilobytes, not 64 MB, per input.
const fuzzMaxLine = 4 << 10

// FuzzStreamNext drives Stream.Next over arbitrary stream bodies: it
// must never panic, the Seq values it returns must rise strictly, and
// after a final update it must return io.EOF.
func FuzzStreamNext(f *testing.F) {
	// A fleet job's stream as a two-peer fleet served a subscriber that
	// attached after two merges: the primed counters-only snapshot, the
	// first merge after attach carrying the partial frontier, later
	// counters-only merges, and the final update.
	fleet, err := os.ReadFile("testdata/fleet_stream.ndjson")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fleet)
	f.Add(fleet[:len(fleet)/2]) // cut mid-line
	// A line past the bound, and a stream repeating seq 2, the last
	// time on a final line.
	f.Add([]byte(`{"seq":1,"evaluated":4}` + "\n" + `{"seq":2,"candidates":[` + strings.Repeat(" ", fuzzMaxLine) + "]}\n"))
	f.Add([]byte(`{"seq":1}` + "\n" + `{"seq":2,"evaluated":8}` + "\n" + `{"seq":2,"evaluated":8}` + "\n" + `{"seq":2,"final":true}` + "\n" + `{"seq":3,"final":true}` + "\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		st := cannedStreamOf(body)
		last := 0
		for i := 0; ; i++ {
			if i > len(body)+1 {
				t.Fatalf("Next returned %d updates from a %d-byte body", i, len(body))
			}
			u, err := st.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					t.Fatalf("Next returned io.EOF before a final update: %v", err)
				}
				return // a decode error or the ended stream
			}
			if u.Seq <= last {
				t.Fatalf("Next returned seq %d after seq %d", u.Seq, last)
			}
			last = u.Seq
			if u.Final {
				if _, err := st.Next(); !errors.Is(err, io.EOF) {
					t.Fatalf("Next after the final update returned %v, want io.EOF", err)
				}
				return
			}
		}
	})
}

// TestStreamLineBound: a line past the stream's bound is an error naming
// the bound, after the lines before it decoded.
func TestStreamLineBound(t *testing.T) {
	st := cannedStreamOf([]byte(`{"seq":1}` + "\n" + strings.Repeat("x", fuzzMaxLine) + "\n"))
	if u, err := st.Next(); err != nil || u.Seq != 1 {
		t.Fatalf("first line: %+v, %v", u, err)
	}
	if _, err := st.Next(); !errors.Is(err, errLineTooLong) {
		t.Fatalf("over-long line returned %v, want errLineTooLong", err)
	}
}
