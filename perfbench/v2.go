package main

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/proxy"
)

// v2Target drives one pipelined v2 connection. The dispatcher sends
// each op's queries with Lane.QueryAsync and returns at once; one
// goroutine per lane collects that lane's responses, which the server
// answers in send order. Writes have no async client call, so a write
// op is sent by its lane's goroutine, after the lane's earlier ops.
type v2Target struct {
	ctx   context.Context
	cl    *proxy.Client
	lanes []*v2Lane
	rec   *recorder
}

type v2Lane struct {
	ln *proxy.Lane
	// q carries the lane's in-flight ops to its collector in send
	// order; 4096 is far above any lane's share of the in-flight cap
	// or of an open-loop backlog, so the dispatcher never blocks here.
	q chan *item
}

// dialV2 connects, negotiates protocol v2 and hellos every lane's
// session: a named durable session when durable is set.
func dialV2(ctx context.Context, addr string, w *workload, rec *recorder) (*v2Target, error) {
	cl, err := proxy.Dial(addr, proxy.WithWindow(maxInFlight))
	if err != nil {
		return nil, fmt.Errorf("dial v2: %w", err)
	}
	if err := cl.Hello(ctx, attrsAny(w.principal(0))); err != nil {
		cl.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	t := &v2Target{ctx: ctx, cl: cl, rec: rec}
	for l := 0; l < w.lanes; l++ {
		t.lanes = append(t.lanes, &v2Lane{ln: cl.Lane(uint64(l + 1)), q: make(chan *item, 4096)})
	}
	if w.durable {
		err = t.helloDurable(w)
	} else {
		err = t.rehello(w)
	}
	if err != nil {
		cl.Close()
		return nil, err
	}
	for _, ln := range t.lanes {
		go t.collect(ln)
	}
	return t, nil
}

// rehello starts every lane's session afresh: a hello resets an
// ephemeral session's history.
func (t *v2Target) rehello(w *workload) error {
	hellos := make([]*proxy.PendingOK, len(t.lanes))
	for l, ln := range t.lanes {
		p, err := ln.ln.HelloAsync(t.ctx, attrsAny(w.principal(l)))
		if err != nil {
			return fmt.Errorf("hello lane %d: %w", l, err)
		}
		hellos[l] = p
	}
	for l, p := range hellos {
		if err := p.Wait(t.ctx); err != nil {
			return fmt.Errorf("hello lane %d: %w", l, err)
		}
	}
	return nil
}

// helloDurable keys every lane to its named durable session. The
// client has no async durable hello, so a few goroutines issue them
// side by side, as concurrent clients would, and the WAL's group
// commit can share fsyncs between them.
func (t *v2Target) helloDurable(w *workload) error {
	const workers = 16
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			var err error
			for l := g; l < len(t.lanes) && err == nil; l += workers {
				if _, err = t.lanes[l].ln.HelloDurable(t.ctx, sessionName(l), attrsAny(w.principal(l))); err != nil {
					err = fmt.Errorf("durable hello lane %d: %w", l, err)
				}
			}
			errs <- err
		}(g)
	}
	var first error
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func sessionName(lane int) string { return fmt.Sprintf("lane-%d", lane) }

func (t *v2Target) send(it *item) {
	ln := t.lanes[it.op.lane]
	it.out = make([]outcome, len(it.op.reqs))
	if !it.op.reqs[0].exec {
		it.pend = make([]*proxy.PendingRows, len(it.op.reqs))
		for i, r := range it.op.reqs {
			p, err := ln.ln.QueryAsync(t.ctx, r.sql, r.args...)
			if err != nil {
				it.out[i].err = err
				continue
			}
			it.pend[i] = p
		}
	}
	ln.q <- it
}

// collect completes one lane's ops in order until the target closes.
func (t *v2Target) collect(ln *v2Lane) {
	for it := range ln.q {
		for i, r := range it.op.reqs {
			if it.out[i].err != nil {
				continue
			}
			if r.exec {
				n, err := ln.ln.Exec(t.ctx, r.sql, r.args...)
				it.out[i] = outcome{rows: n, err: err}
				continue
			}
			rows, err := it.pend[i].Wait(t.ctx)
			switch {
			case errors.Is(err, proxy.ErrBlocked):
				it.out[i].blocked = true
			case err != nil:
				it.out[i].err = err
			default:
				it.out[i].rows = len(rows.Rows)
			}
		}
		it.pend = nil
		t.rec.finish(it)
	}
}

// close stops the collectors (after every phase has drained) and the
// connection.
func (t *v2Target) close() {
	for _, ln := range t.lanes {
		close(ln.q)
	}
	t.cl.Close()
}

func attrsAny(uid int64) map[string]any { return map[string]any{"MyUId": uid} }
