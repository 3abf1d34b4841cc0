package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
)

// pgTarget drives the Postgres wire ingress over the extended
// protocol: every distinct statement is Parsed once per connection at
// set-up, then each request is one Bind/Execute/Sync. The dispatcher
// writes an op's messages and flushes once; a reader goroutine per
// connection parses the responses, which arrive in send order.
type pgTarget struct {
	conns []*pgConn
	rec   *recorder
}

type pgConn struct {
	nc    net.Conn
	bw    *bufio.Writer
	stmts map[string]string // SQL → prepared statement name
	buf   []byte

	mu       sync.Mutex
	inflight []*item // ops awaiting responses, in send order
	wake     chan struct{}
	done     chan struct{}
}

const sqlStateBlocked = "42501"

// dialPg opens one connection per lane, each keyed to the lane's
// principal, and prepares every statement the pool uses.
func dialPg(addr string, w *workload, pool *opPool, rec *recorder) (*pgTarget, error) {
	t := &pgTarget{rec: rec}
	for l := 0; l < w.lanes; l++ {
		c, err := pgConnect(addr, w.principal(l))
		if err != nil {
			t.close()
			return nil, err
		}
		if err := c.prepare(pool, l); err != nil {
			c.nc.Close()
			t.close()
			return nil, err
		}
		t.conns = append(t.conns, c)
		go t.read(c)
	}
	return t, nil
}

func pgConnect(addr string, uid int64) (*pgConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial pg: %w", err)
	}
	c := &pgConn{nc: nc, bw: bufio.NewWriterSize(nc, 16<<10), stmts: map[string]string{},
		wake: make(chan struct{}, 1), done: make(chan struct{})}
	var body []byte
	body = binary.BigEndian.AppendUint32(body, 196608)
	for _, kv := range [][2]string{{"user", "bench"}, {"attr.MyUId", strconv.FormatInt(uid, 10)}} {
		body = append(append(body, kv[0]...), 0)
		body = append(append(body, kv[1]...), 0)
	}
	body = append(body, 0)
	msg := binary.BigEndian.AppendUint32(nil, uint32(len(body)+4))
	if _, err := nc.Write(append(msg, body...)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("pg startup: %w", err)
	}
	if err := c.untilReady(bufio.NewReader(nc)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("pg startup: %w", err)
	}
	return c, nil
}

// prepare Parses every statement of the lane's ops, then syncs once.
func (c *pgConn) prepare(pool *opPool, lane int) error {
	for _, kind := range pool.kinds {
		if lane >= len(pool.byKind[kind]) {
			continue
		}
		for _, o := range pool.byKind[kind][lane] {
			for _, r := range o.reqs {
				if _, ok := c.stmts[r.sql]; ok {
					continue
				}
				name := "s" + strconv.Itoa(len(c.stmts))
				c.stmts[r.sql] = name
				c.msg('P', func(b []byte) []byte {
					b = cstr(cstr(b, name), r.sql)
					return binary.BigEndian.AppendUint16(b, 0)
				})
			}
		}
	}
	c.msg('S', nil)
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("pg prepare: %w", err)
	}
	return c.untilReady(nil)
}

// untilReady reads set-up responses until ReadyForQuery, failing on
// any ErrorResponse.
func (c *pgConn) untilReady(r *bufio.Reader) error {
	if r == nil {
		r = bufio.NewReader(c.nc)
	}
	for {
		typ, body, err := readPgMsg(r, nil)
		if err != nil {
			return err
		}
		switch typ {
		case 'E':
			return fmt.Errorf("server error %s", pgErrorState(body))
		case 'Z':
			if r.Buffered() > 0 {
				return errors.New("unexpected data after ReadyForQuery")
			}
			return nil
		}
	}
}

func cstr(b []byte, s string) []byte { return append(append(b, s...), 0) }

// msg appends one frontend message (type, length, body) to the buffer.
func (c *pgConn) msg(typ byte, body func([]byte) []byte) {
	b := append(c.buf[:0], typ, 0, 0, 0, 0)
	if body != nil {
		b = body(b)
	}
	binary.BigEndian.PutUint32(b[1:5], uint32(len(b)-1))
	c.buf = b
	_, _ = c.bw.Write(b) // a write error resurfaces at Flush
}

func (t *pgTarget) send(it *item) {
	c := t.conns[it.op.lane]
	it.out = make([]outcome, len(it.op.reqs))
	c.mu.Lock()
	c.inflight = append(c.inflight, it)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	for _, r := range it.op.reqs {
		name := c.stmts[r.sql]
		c.msg('B', func(b []byte) []byte {
			b = cstr(cstr(b, ""), name)
			b = binary.BigEndian.AppendUint16(b, 0)
			b = binary.BigEndian.AppendUint16(b, uint16(len(r.args)))
			for _, a := range r.args {
				v := fmt.Sprint(a)
				b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
				b = append(b, v...)
			}
			return binary.BigEndian.AppendUint16(b, 0)
		})
		c.msg('E', func(b []byte) []byte { return binary.BigEndian.AppendUint32(cstr(b, ""), 0) })
		c.msg('S', nil)
	}
	if err := c.bw.Flush(); err != nil {
		for i := range it.out {
			it.out[i].err = err
		}
	}
}

// read completes one connection's ops in order: each request ends at
// its ReadyForQuery; an ErrorResponse with SQLSTATE 42501 is a policy
// block. After a read error every remaining op fails at once.
func (t *pgTarget) read(c *pgConn) {
	defer close(c.done)
	r := bufio.NewReaderSize(c.nc, 64<<10)
	var scratch []byte
	var dead error
	for {
		c.mu.Lock()
		var it *item
		if len(c.inflight) > 0 {
			it = c.inflight[0]
			c.inflight = c.inflight[1:]
		}
		c.mu.Unlock()
		if it == nil {
			if _, ok := <-c.wake; !ok {
				return
			}
			continue
		}
		for i := range it.op.reqs {
			o := &it.out[i]
			if dead != nil {
				o.err = dead
				continue
			}
			for {
				typ, body, err := readPgMsg(r, &scratch)
				if err != nil {
					dead, o.err = err, err
					break
				}
				if typ == 'Z' {
					break
				}
				switch typ {
				case 'D':
					o.rows++
				case 'C':
					if it.op.reqs[i].exec {
						o.rows = affected(body)
					}
				case 'E':
					if st := pgErrorState(body); st == sqlStateBlocked {
						o.blocked = true
					} else {
						o.err = fmt.Errorf("pg error %s", st)
					}
				}
			}
		}
		t.rec.finish(it)
	}
}

func readPgMsg(r *bufio.Reader, scratch *[]byte) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[1:])) - 4
	var body []byte
	if scratch != nil && cap(*scratch) >= n {
		body = (*scratch)[:n]
	} else {
		body = make([]byte, n)
		if scratch != nil {
			*scratch = body
		}
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return hdr[0], body, nil
}

// pgErrorState extracts the SQLSTATE ('C' field) of an ErrorResponse.
func pgErrorState(body []byte) string {
	for len(body) > 1 {
		f := body[0]
		end := 1
		for end < len(body) && body[end] != 0 {
			end++
		}
		if f == 'C' {
			return string(body[1:end])
		}
		body = body[end+1:]
	}
	return ""
}

// affected parses the row count at the end of a CommandComplete tag.
func affected(body []byte) int {
	tag := string(body)
	if n := len(tag); n > 0 && tag[n-1] == 0 {
		tag = tag[:n-1]
	}
	i := len(tag)
	for i > 0 && tag[i-1] >= '0' && tag[i-1] <= '9' {
		i--
	}
	n, _ := strconv.Atoi(tag[i:])
	return n
}

// close ends every connection and waits for its reader.
func (t *pgTarget) close() {
	for _, c := range t.conns {
		_, _ = c.bw.Write([]byte{'X', 0, 0, 0, 4})
		_ = c.bw.Flush()
		c.nc.Close()
		close(c.wake)
		<-c.done
	}
}
