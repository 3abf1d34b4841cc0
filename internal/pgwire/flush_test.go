package pgwire

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/proxy"
)

// scriptConn is a netConn the test drives by hand. Each chunk sent on
// in is one client write; each server Write is recorded on its own, so
// a test can count write syscalls. Every time the server is about to
// block in a read with no client bytes pending it first signals idle,
// which is the moment the flush rule says its answers must be on the
// wire.
type scriptConn struct {
	in   chan []byte
	idle chan struct{}
	done chan struct{} // closed when serve returns
	pend []byte

	mu     sync.Mutex
	writes [][]byte
}

func (sc *scriptConn) Read(b []byte) (int, error) {
	if len(sc.pend) == 0 {
		sc.idle <- struct{}{}
		chunk, ok := <-sc.in
		if !ok {
			return 0, io.EOF
		}
		sc.pend = chunk
	}
	n := copy(b, sc.pend)
	sc.pend = sc.pend[n:]
	return n, nil
}

func (sc *scriptConn) Write(b []byte) (int, error) {
	sc.mu.Lock()
	sc.writes = append(sc.writes, append([]byte(nil), b...))
	sc.mu.Unlock()
	return len(b), nil
}

func (sc *scriptConn) Close() error { return nil }

// exchange sends chunk as one client write and returns the server
// writes made before the server next blocked reading (or returned).
func (sc *scriptConn) exchange(t *testing.T, chunk []byte) [][]byte {
	t.Helper()
	sc.mu.Lock()
	before := len(sc.writes)
	sc.mu.Unlock()
	sc.in <- chunk
	select {
	case <-sc.idle:
	case <-sc.done:
	case <-time.After(5 * time.Second):
		t.Fatal("server neither blocked reading nor returned")
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.writes[before:]
}

// startScripted runs one connection's serve loop over a scriptConn and
// completes startup with params.
func startScripted(t *testing.T, px *proxy.Server, params map[string]string) *scriptConn {
	t.Helper()
	sc := &scriptConn{in: make(chan []byte), idle: make(chan struct{}), done: make(chan struct{})}
	c := &conn{srv: NewServer(Config{Proxy: px}), netc: sc, pid: 1, secret: 1}
	go func() {
		defer close(sc.done)
		c.serve(context.Background())
	}()
	t.Cleanup(func() {
		close(sc.in)
		for {
			select {
			case <-sc.done:
				px.Close()
				return
			case <-sc.idle:
			}
		}
	})
	<-sc.idle // waiting for the startup message
	w := sc.exchange(t, startupMsg(params))
	if msgs := splitMsgs(t, bytes.Join(w, nil)); len(msgs) == 0 || msgs[len(msgs)-1].typ != 'Z' {
		t.Fatalf("startup reply %s does not end in ReadyForQuery", msgTypes(msgs))
	}
	return sc
}

// TestPipelinedBatchOneWrite pins the flush rule: answers are flushed
// once per drained input. A lone Bind/Execute/Sync gets its whole reply
// in one write before the server blocks reading; K triples sent in one
// client write get one server write, byte-identical to the K replies
// sent one at a time.
func TestPipelinedBatchOneWrite(t *testing.T) {
	sc := startScripted(t, testProxy(t, proxy.Enforce), map[string]string{"attr.MyUId": "1"})
	w := sc.exchange(t, append(parseMsg("q", "SELECT EId FROM Attendance WHERE UId = $1", nil), syncMsg...))
	if got := msgTypes(splitMsgs(t, bytes.Join(w, nil))); got != "1Z" {
		t.Fatalf("Parse+Sync reply %q, want \"1Z\"", got)
	}

	op := bytes.Join([][]byte{bindMsg("", "q", []string{"1"}), executeMsg("", 0), syncMsg}, nil)
	const k = 16
	var oneAtATime []byte
	for i := 0; i < k; i++ {
		w := sc.exchange(t, op)
		if len(w) != 1 {
			t.Fatalf("op %d: %d server writes before the read, want 1", i, len(w))
		}
		if got := msgTypes(splitMsgs(t, w[0])); got != "2DCZ" {
			t.Fatalf("op %d: reply %q, want \"2DCZ\"", i, got)
		}
		oneAtATime = append(oneAtATime, w[0]...)
	}

	w = sc.exchange(t, bytes.Repeat(op, k))
	if len(w) != 1 {
		t.Fatalf("%d pipelined ops: %d server writes, want 1", k, len(w))
	}
	if !bytes.Equal(w[0], oneAtATime) {
		t.Fatalf("pipelined reply differs from %d one-at-a-time replies:\n% x\n% x", k, w[0], oneAtATime)
	}
}

// TestFlushMessage pins the explicit Flush ('H'): a Parse answered
// without any Sync, flushed at the 'H' even with more input buffered.
func TestFlushMessage(t *testing.T) {
	sc := startScripted(t, testProxy(t, proxy.Enforce), map[string]string{"attr.MyUId": "1"})
	const sql = "SELECT EId FROM Attendance WHERE UId = $1"
	w := sc.exchange(t, bytes.Join([][]byte{parseMsg("a", sql, nil), frame('H', nil), parseMsg("b", sql, nil)}, nil))
	if len(w) != 2 {
		t.Fatalf("Parse,Flush,Parse: %d server writes, want 2 (one at the Flush, one before the read)", len(w))
	}
	for i, b := range w {
		if got := msgTypes(splitMsgs(t, b)); got != "1" {
			t.Fatalf("write %d: %q, want ParseComplete alone", i, got)
		}
	}
}

// Negative int16 counts once reached make() and panicked the process
// (makeslice: len out of range): Parse's parameter-type count, Bind's
// parameter-format count and Bind's parameter count.
var (
	negParseOIDs = []byte{'P', 0, 0, 0, 11, 0, 'a', 'b', 'c', 0, 0xFF, 0xFF}
	negBindFmts  = frame('B', []byte{0, 0, 0xFF, 0xFF})
	negBindArgs  = frame('B', []byte{0, 0, 0, 0, 0xFF, 0xFF})
)

// TestNegativeCountsCloseConnection sends those exact messages: each is
// a protocol violation (08P01) that closes its connection, and the
// server keeps serving others.
func TestNegativeCountsCloseConnection(t *testing.T) {
	addr, _ := listen(t, testProxy(t, proxy.Enforce), Config{})
	cases := map[string][]byte{
		"parse-oid-count":  negParseOIDs,
		"bind-fmt-count":   append(parseMsg("", "SELECT EId FROM Attendance WHERE UId = $1", nil), negBindFmts...),
		"bind-param-count": append(parseMsg("", "SELECT EId FROM Attendance WHERE UId = $1", nil), negBindArgs...),
	}
	for name, stream := range cases {
		t.Run(name, func(t *testing.T) {
			pc := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})
			pc.write(append(stream, syncMsg...))
			var msgs []backendMsg
			for m := pc.read(); ; m = pc.read() {
				msgs = append(msgs, m)
				if m.typ == 'E' {
					break
				}
			}
			wantSQLState(t, msgs, "08P01")
			pc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := pc.c.Read(make([]byte, 64)); err != io.EOF {
				t.Fatalf("after the violation: read %d bytes, err %v; want EOF", n, err)
			}
			other := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})
			wantCommandTag(t, other.query("SELECT EId FROM Attendance WHERE UId = 1"), "SELECT 1")
		})
	}
}

// streamConn feeds a fixed client stream and keeps what the server
// writes.
type streamConn struct {
	r   *bytes.Reader
	out bytes.Buffer
}

func (s *streamConn) Read(b []byte) (int, error)  { return s.r.Read(b) }
func (s *streamConn) Write(b []byte) (int, error) { return s.out.Write(b) }
func (s *streamConn) Close() error                { return nil }

// FuzzPgwireStream drives the serve loop with arbitrary message
// streams after a valid startup. The server must never panic or hang;
// whatever it writes before the stream ends or it closes must be
// well-framed backend messages.
func FuzzPgwireStream(f *testing.F) {
	px := testProxy(f, proxy.Enforce)
	f.Cleanup(func() { px.Close() })
	srv := NewServer(Config{Proxy: px})
	startup := startupMsg(map[string]string{"attr.MyUId": "1"})

	const sql = "SELECT EId FROM Attendance WHERE UId = $1"
	op := bytes.Join([][]byte{bindMsg("", "q", []string{"1"}), executeMsg("", 0), syncMsg}, nil)
	f.Add(negParseOIDs)
	f.Add(append(parseMsg("", sql, nil), negBindFmts...))
	f.Add(append(parseMsg("", sql, nil), negBindArgs...))
	f.Add(append(parseMsg("q", sql, nil), bytes.Repeat(op, 4)...))
	f.Add(frame('Q', []byte("SELECT * FROM Events WHERE EId = 3; BEGIN\x00")))
	f.Add(bytes.Join([][]byte{parseMsg("", sql, []int32{oidInt8}), frame('D', []byte("S\x00")), frame('H', nil), frame('C', []byte("S\x00")), frame('X', nil)}, nil))

	f.Fuzz(func(t *testing.T, stream []byte) {
		nc := &streamConn{r: bytes.NewReader(append(append([]byte(nil), startup...), stream...))}
		c := &conn{srv: srv, netc: nc, pid: 1, secret: 1}
		c.serve(context.Background())
		splitMsgs(t, nc.out.Bytes())
	})
}
