package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/checker"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/proxy"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// replayer is the traced run's two in-process stacks, fed the exact
// op stream the wire saw, per session in the same order. Twin A
// answers each request through proxy.Server.HandleIn; twin B makes the
// calls runQuery/finishQuery make, one timed span each: parse, check,
// bind+execute, trace append (WAL append and fsync wait on a durable
// session), response encode; or parse and ExecStmt for a write. Both twins start from
// the same seed, so their verdicts must agree with each other and with
// the wire response.
type replayer struct {
	ctx context.Context
	rec *recorder

	a     *proxy.Server
	aSess []*proxy.Session

	db    *engine.DB
	chk   *checker.Checker
	mgr   *durable.Manager
	attrs []map[string]sqlvalue.Value
	trs   []*trace.Trace

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*item
	paused  bool
	closed  bool
	pending atomic.Int64
	stopped chan struct{}

	// Layer samples (ns), written by the replay goroutine only and read
	// after stop.
	svc, parse, check, cold, eng, write, app, respond []int64
	sumRatio                                          []float64
	tiers                                             map[string]int
	decisions                                         int
	flip                                              bool // twin B goes first on this request
}

func newReplayer(ctx context.Context, w *workload, dir string, rec *recorder) (*replayer, error) {
	f := apps.Calendar()
	r := &replayer{ctx: ctx, rec: rec, paused: true, stopped: make(chan struct{}), tiers: map[string]int{}}
	r.cond = sync.NewCond(&r.mu)

	dbA, err := f.NewDB(w.users)
	if err != nil {
		return nil, err
	}
	r.a = proxy.NewServer(dbA, checker.New(f.Policy()), proxy.Enforce)
	r.a.Logf = func(string, ...any) {}
	if w.durable {
		r.a.WALDir, r.a.WALOpts = filepath.Join(dir, "twin-a"), walOptions()
		if err := r.a.OpenDurable(); err != nil {
			return nil, err
		}
	}
	if r.db, err = f.NewDB(w.users); err != nil {
		r.a.Close()
		return nil, err
	}
	r.chk = checker.New(f.Policy())
	if w.durable {
		if r.mgr, err = durable.Open(filepath.Join(dir, "twin-b"), walOptions()); err != nil {
			r.a.Close()
			return nil, err
		}
	}
	for l := 0; l < w.lanes; l++ {
		uid := w.principal(l)
		hello := &proxy.Request{Op: "hello", Session: attrsAny(uid)}
		if w.durable {
			hello.Name = sessionName(l)
		}
		s := proxy.NewSession(nil)
		if resp := r.a.HandleIn(hello, s); resp.Error != "" {
			r.closeTwins()
			return nil, fmt.Errorf("twin A hello: %s", resp.Error)
		}
		r.aSess = append(r.aSess, s)
		attrs := f.Session(uid)
		tr := &trace.Trace{}
		if r.mgr != nil {
			if tr, _, err = r.mgr.Session(sessionName(l), attrs); err != nil {
				r.closeTwins()
				return nil, fmt.Errorf("twin B session: %w", err)
			}
		}
		r.attrs = append(r.attrs, attrs)
		r.trs = append(r.trs, tr)
	}
	go r.loop()
	return r, nil
}

func (r *replayer) push(it *item) {
	r.pending.Add(1)
	r.mu.Lock()
	r.queue = append(r.queue, it)
	r.mu.Unlock()
	r.cond.Signal()
}

// pushReset queues a session reset behind everything already queued:
// the twins' counterpart of the wire's re-hello.
func (r *replayer) pushReset() { r.push(&item{}) }

// reset gives every lane a fresh ephemeral session on both twins.
func (r *replayer) reset() {
	for l := range r.aSess {
		s := proxy.NewSession(nil)
		if resp := r.a.HandleIn(&proxy.Request{Op: "hello", Session: attrsAny(r.attrs[l]["MyUId"].Any().(int64))}, s); resp.Error != "" {
			r.rec.mismatch("twin A re-hello lane %d: %s", l, resp.Error)
		}
		r.aSess[l] = s
		r.trs[l] = &trace.Trace{}
	}
}

// setPaused holds (or releases) the queue: an untraced phase runs with
// the replay paused, so the twins cost nothing while it is measured.
func (r *replayer) setPaused(p bool) {
	r.mu.Lock()
	r.paused = p
	r.mu.Unlock()
	r.cond.Signal()
}

// catchUp replays everything queued so far, then pauses again.
func (r *replayer) catchUp() {
	r.setPaused(false)
	for r.pending.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	r.setPaused(true)
}

func (r *replayer) loop() {
	defer close(r.stopped)
	for {
		r.mu.Lock()
		for !r.closed && (r.paused || len(r.queue) == 0) {
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		batch := r.queue
		r.queue = nil
		r.mu.Unlock()
		for _, it := range batch {
			r.replay(it)
			r.pending.Add(-1)
		}
	}
}

// close stops the replay goroutine and both twins.
func (r *replayer) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Signal()
	<-r.stopped
	r.closeTwins()
}

func (r *replayer) closeTwins() {
	r.a.Close()
	if r.mgr != nil {
		r.mgr.Close()
	}
}

// replay runs one op through both twins in lockstep, request by
// request, and checks the three verdicts against each other and the
// workload's expectation.
func (r *replayer) replay(it *item) {
	if it.op == nil {
		r.reset()
		return
	}
	lane := it.op.lane
	var svc, parts int64
	for i, want := range it.op.reqs {
		opName := "query"
		if want.exec {
			opName = "exec"
		}
		// The twins take turns going first, so neither is always the one
		// that finds the code and data already in cache.
		var b outcome
		var spent int64
		r.flip = !r.flip
		if r.flip {
			b, spent = r.twinB(want, lane, !it.ph.warm)
		}
		req := &proxy.Request{Op: opName, SQL: want.sql, Args: want.args}
		t0 := now()
		resp := r.a.HandleIn(req, r.aSess[lane])
		svc += now() - t0
		if !r.flip {
			b, spent = r.twinB(want, lane, !it.ph.warm)
		}
		parts += spent
		a := outcome{blocked: resp.Blocked, rows: len(resp.Rows)}
		if want.exec {
			a.rows = resp.Affected
		}
		if resp.Error != "" {
			a.err = fmt.Errorf("%s", resp.Error)
		}
		wire := it.out[i]
		if a != b || a.blocked != wire.blocked || a.rows != wire.rows || a.err != nil {
			r.rec.mismatch("%s on lane %d, request %d (%s %v): wire blocked=%v rows=%d, twin A blocked=%v rows=%d err=%v, twin B blocked=%v rows=%d err=%v",
				it.op.name, lane, i, want.sql, want.args, wire.blocked, wire.rows, a.blocked, a.rows, a.err, b.blocked, b.rows, b.err)
		}
	}
	if !it.ph.warm {
		r.svc = append(r.svc, svc)
		r.sumRatio = append(r.sumRatio, float64(parts)/float64(svc))
	}
}

// twinB makes runQuery's calls (or handleExec's) one timed span each
// and returns the outcome and the summed span time.
func (r *replayer) twinB(want request, lane int, measured bool) (outcome, int64) {
	t0 := now()
	args := sqlparser.PositionalArgs(want.args...)
	if want.exec {
		stmt, err := sqlparser.ParseNorm(want.sql)
		if err != nil {
			return outcome{err: err}, 0
		}
		t1 := now()
		_, n, err := r.db.ExecStmt(stmt, args)
		t2 := now()
		if measured {
			r.parse = append(r.parse, t1-t0)
			r.write = append(r.write, t2-t1)
		}
		return outcome{rows: n, err: err}, t2 - t0
	}
	sel, err := sqlparser.ParseSelectNorm(want.sql)
	if err != nil {
		return outcome{err: err}, 0
	}
	t1 := now()
	d := r.chk.CheckBorrowed(r.ctx, sel, args, r.attrs[lane], r.trs[lane])
	t2 := now()
	if d.Tier == "" {
		r.cold = append(r.cold, t2-t1)
	}
	if measured {
		r.parse = append(r.parse, t1-t0)
		r.check = append(r.check, t2-t1)
		r.tiers[d.Tier]++
		r.decisions++
	}
	if !d.Allowed {
		return outcome{blocked: true}, t2 - t0
	}
	bound, err := sqlparser.Bind(sel, args)
	if err != nil {
		return outcome{err: err}, t2 - t0
	}
	res, err := r.db.QueryCtx(r.ctx, bound.(*sqlparser.SelectStmt))
	if err != nil {
		return outcome{err: err}, t2 - t0
	}
	t3 := now()
	rows := make([][]sqlvalue.Value, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = append([]sqlvalue.Value(nil), row...)
	}
	r.trs[lane].Append(trace.Entry{SQL: want.sql, Stmt: sel, Args: args, Columns: res.Columns, Rows: rows})
	t4 := now()
	// The response body finishQuery builds: each value as its Go form.
	body := make([][]any, len(rows))
	for i, row := range rows {
		body[i] = make([]any, len(row))
		for j, v := range row {
			body[i][j] = v.Any()
		}
	}
	t5 := now()
	if measured {
		r.eng = append(r.eng, t3-t2)
		r.app = append(r.app, t4-t3)
		r.respond = append(r.respond, t5-t4)
	}
	return outcome{rows: len(body)}, t5 - t0
}

// meanTraceLen is the mean history length per session.
func (r *replayer) meanTraceLen() float64 {
	n := 0
	for _, tr := range r.trs {
		n += tr.Len()
	}
	return float64(n) / float64(len(r.trs))
}
