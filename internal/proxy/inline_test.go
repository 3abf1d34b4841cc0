package proxy

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"
)

// TestInlineParity pins the v2 inline fast path to the general path.
// A per-request timeout makes a request ineligible for the inline
// path, so the same warm front-cache query sent with and without one
// is answered once by each path: the answers must be byte-identical,
// and only the untimed request may count as an inline hit. A blocked
// decision is never front-cached, so a blocked query never goes inline
// and both requests answer it identically.
func TestInlineParity(t *testing.T) {
	srv := testServer(t, Enforce)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	// roundTrip sends one request line and returns the raw response
	// line. Every request reuses one ID, so answers compare as bytes.
	roundTrip := func(line string) []byte {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		resp, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decode := func(line []byte) Response {
		t.Helper()
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return resp
	}

	if h := decode(roundTrip(`{"op":"hello","id":1,"maxProto":2,"session":{"MyUId":1}}`)); !h.OK || h.Proto != ProtoV2 {
		t.Fatalf("hello: %+v", h)
	}
	const (
		allowed      = `{"op":"query","id":7,"sql":"SELECT EId FROM Attendance WHERE UId = 1"}`
		allowedTimed = `{"op":"query","id":7,"sql":"SELECT EId FROM Attendance WHERE UId = 1","timeoutMillis":60000}`
		blocked      = `{"op":"query","id":7,"sql":"SELECT Name FROM Users WHERE UId = 2"}`
		blockedTimed = `{"op":"query","id":7,"sql":"SELECT Name FROM Users WHERE UId = 2","timeoutMillis":60000}`
	)
	// The first answer fills the front cache.
	if w := decode(roundTrip(allowed)); !w.OK || w.Blocked || len(w.Rows) != 1 {
		t.Fatalf("warmup: %+v", w)
	}

	// The previous request's lane runner may still hold the lane when
	// the next request is read, and a busy lane is not eligible; retry
	// until an untimed request goes inline. Each adds at most one hit.
	var inline []byte
	var hits int64
	for attempt := 0; inline == nil; attempt++ {
		if attempt == 100 {
			t.Fatal("no untimed warm query went inline in 100 attempts")
		}
		hits = srv.mInlineHits.Value()
		resp := roundTrip(allowed)
		switch got := srv.mInlineHits.Value(); got - hits {
		case 0:
			time.Sleep(time.Millisecond)
		case 1:
			inline = resp
		default:
			t.Fatalf("one untimed query: inline hits %d -> %d, want +1", hits, got)
		}
	}
	general := roundTrip(allowedTimed)
	if got := srv.mInlineHits.Value(); got != hits+1 {
		t.Fatalf("timed query went inline: hits %d, want %d", got, hits+1)
	}
	if !bytes.Equal(inline, general) {
		t.Fatalf("inline and general answers differ:\ninline:  %s\ngeneral: %s", inline, general)
	}
	if resp := decode(inline); !resp.OK || resp.Blocked || len(resp.Rows) != 1 {
		t.Fatalf("inline answer: %+v", resp)
	}

	blockedUntimed := roundTrip(blocked)
	blockedGeneral := roundTrip(blockedTimed)
	if got := srv.mInlineHits.Value(); got != hits+1 {
		t.Fatalf("blocked query went inline: hits %d, want %d", got, hits+1)
	}
	if !bytes.Equal(blockedUntimed, blockedGeneral) {
		t.Fatalf("blocked answers differ:\nuntimed: %s\ntimed:   %s", blockedUntimed, blockedGeneral)
	}
	if resp := decode(blockedUntimed); !resp.OK || !resp.Blocked {
		t.Fatalf("blocked answer: %+v", resp)
	}
}
