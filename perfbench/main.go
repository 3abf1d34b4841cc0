// Command perfbench drives the enforcement proxy's real stack from
// outside and reports end-to-end and per-layer metrics for one traffic
// mix. See README.md for the workloads and every metric's definition.
//
//	go run . --workload warm-v2 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). Earlier lines are the environment header
// and a human-readable table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/checker"
	"repro/internal/durable"
	"repro/internal/pgwire"
	"repro/internal/proxy"
)

// maxInFlight sizes the client window and the server's per-connection
// pipeline so neither caps an open-loop backlog: only the offered
// schedule and the closed loop's own cap decide what is in flight.
const maxInFlight = 1 << 14

// setupRepeats is how many times a --trace 0 run builds the stack;
// setup_s is the median.
const setupRepeats = 5

func walOptions() durable.Options {
	o := durable.DefaultOptions()
	o.CheckpointEvery = 5000
	return o
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	runDir := flag.String("dir", ".bench_build/tmp", "directory for the run's WAL files (removed at exit)")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {warm-v2|history-v2|durable-rw|warm-pg} --seed N --seconds S --trace 0|1 (%v)\n", err)
		os.Exit(2)
	}
	dir, err := scratchDir(*runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{w: w, seed: *seed, length: time.Duration(*seconds) * time.Second, dir: dir, ctx: context.Background()}
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s loadavg_before=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), envOr("BENCH_COMMIT", "unknown"), loadavg())
	fmt.Printf("# ingress=%s users=%d sessions=%d durable=%v rate_lo=%g rate_hi=%g inflight_cap=%d warm_ops=%d\n",
		w.ingress, w.users, w.lanes, w.durable, w.lo, w.hi, w.cap, w.warmOps)
	steal0 := stealJiffies()
	var res *result
	if *traced == 1 {
		res, err = b.runTraced()
	} else {
		res, err = b.runPlain()
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# loadavg_after=%q cpu_steal_pct=%.1f\n", loadavg(), stealJiffies().pct(steal0))
	res.print()
	if res.Wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong decisions; first: %s\n", res.Wrong, res.firstBad)
		os.Exit(1)
	}
}

func scratchDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

type bench struct {
	w      *workload
	seed   int64
	length time.Duration
	dir    string
	ctx    context.Context
}

// stack is one freshly built enforcement stack with its client.
type stack struct {
	srv  *proxy.Server
	pgs  *pgwire.Server
	addr string
	v2   *v2Target
	pg   *pgTarget
	tg   target
}

// setup builds the stack the way a deployment starts: seed the DB,
// compile the policy, open the WAL, listen, dial, hello every session,
// then warm the caches with a fixed count of closed-loop ops.
func (b *bench) setup(pool *opPool, rec *recorder, walDir string) (*stack, time.Duration, error) {
	start := time.Now()
	w := b.w
	f := apps.Calendar()
	db, err := f.NewDB(w.users)
	if err != nil {
		return nil, 0, err
	}
	srv := proxy.NewServer(db, checker.New(f.Policy()), proxy.Enforce)
	srv.Logf = func(string, ...any) {}
	srv.MaxConns = 8
	srv.MaxInFlight = maxInFlight
	if w.durable {
		srv.WALDir, srv.WALOpts = walDir, walOptions()
	}
	st := &stack{srv: srv}
	switch w.ingress {
	case "v2":
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		if st.v2, err = dialV2(b.ctx, addr, w, rec); err != nil {
			srv.Close()
			return nil, 0, err
		}
		st.tg = st.v2
	case "pg":
		st.pgs = pgwire.NewServer(pgwire.Config{Proxy: srv, MaxConns: 8})
		addr, err := st.pgs.Listen("127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		st.addr = addr
		if st.pg, err = dialPg(addr, w, pool, rec); err != nil {
			st.pgs.Close()
			srv.Close()
			return nil, 0, err
		}
		st.tg = st.pg
	}
	warm := &phase{name: "warm", warm: true}
	if err := runClosed(st.tg, warm, pool, w.lanes, w.cap, w.warmOps, b.seed); err != nil {
		st.close()
		return nil, 0, err
	}
	if warm.failed.Load() > 0 {
		st.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d ops failed", warm.failed.Load(), warm.attempted.Load())
	}
	return st, time.Since(start), nil
}

// freshSessions starts a round with new ephemeral sessions, as users
// logging in again would: every session's history restarts empty, so
// a run's heap and trace lengths stay bounded by one round's traffic.
// A v2 lane re-hellos; a pg connection reconnects (its session lives
// as long as the connection). Durable sessions keep their history:
// persisting it is their point. The replay twins reset in step.
func (b *bench) freshSessions(st *stack, pool *opPool, rec *recorder) error {
	if b.w.durable {
		return nil
	}
	if rec.replay != nil {
		rec.replay.pushReset()
	}
	if st.v2 != nil {
		return st.v2.rehello(b.w)
	}
	st.pg.close()
	var err error
	st.pg, err = dialPg(st.addr, b.w, pool, rec)
	if err != nil {
		st.pg = nil
		return err
	}
	st.tg = st.pg
	return nil
}

func (st *stack) close() {
	if st.v2 != nil {
		st.v2.close()
	}
	if st.pg != nil {
		st.pg.close()
	}
	if st.pgs != nil {
		st.pgs.Close()
	}
	st.srv.Close()
}

// counters are the program's own counters read around a phase.
type counters struct {
	os   osCounters
	srv  proxy.StatsBody
	wal  durable.Stats
	done int64
}

// add accumulates the change from before to after.
func (c *counters) add(before, after counters) {
	d := after.os.sub(before.os)
	c.os.syscalls += d.syscalls
	c.os.bytes += d.bytes
	c.os.cpu += d.cpu
	c.os.ctxsw += d.ctxsw
	c.done += after.done - before.done
	c.srv.WriteFrames += after.srv.WriteFrames - before.srv.WriteFrames
	c.srv.WriteFlushes += after.srv.WriteFlushes - before.srv.WriteFlushes
	c.srv.InlineHits += after.srv.InlineHits - before.srv.InlineHits
	c.srv.InlineBypass += after.srv.InlineBypass - before.srv.InlineBypass
	c.wal.Appends += after.wal.Appends - before.wal.Appends
	c.wal.Fsyncs += after.wal.Fsyncs - before.wal.Fsyncs
	c.wal.AppendedBytes += after.wal.AppendedBytes - before.wal.AppendedBytes
}

func snapshot(st *stack, ph *phase) (counters, error) {
	c := counters{srv: *st.srv.StatsSnapshot(), done: ph.completed.Load()}
	if m := st.srv.Durable(); m != nil {
		c.wal = m.Stats()
	}
	var err error
	c.os, err = readOS()
	return c, err
}

// open runs an open-loop phase at rate for length, from the schedule
// the seed and label define, and returns the os and program counters
// around it.
func (b *bench) open(st *stack, pool *opPool, label string, rate float64, length time.Duration) (*phase, counters, counters, error) {
	sched := poissonSchedule(pool, b.w.lanes, rate, length, b.seed, label)
	ph := &phase{name: label, length: int64(length)}
	before, err := snapshot(st, ph)
	if err != nil {
		return nil, before, before, err
	}
	err = runOpen(st.tg, ph, sched)
	after, serr := snapshot(st, ph)
	if err == nil {
		err = serr
	}
	return ph, before, after, err
}

// newPool builds the workload's distinct ops. They are the
// application's data model (which events each user looks up), fixed
// across seeds so every seed exercises the same caches; the seed
// drives the traffic drawn from them.
func (b *bench) newPool() *opPool {
	return b.w.pool(b.w, rand.New(rand.NewSource(labelHash("pool"))))
}

// rounds is how many times a run cycles through its load levels, so
// every level is sampled across the whole run and a machine that is
// slow for a second or two moves each metric a little rather than one
// metric a lot. Latencies pool a level's segments; rates and CPU take
// the median over rounds.
const rounds = 6

// runPlain is the untraced run behind the end-to-end metrics: set-up
// (repeated; setup_s is the median), then rounds of an lo and a hi
// open-loop segment and a closed-loop segment of fixed op count, then
// the live heap. Every run of a seed sends the same ops, so it ends
// with the same trace lengths.
func (b *bench) runPlain() (*result, error) {
	w := b.w
	pool := b.newPool()
	rec := &recorder{}
	var st *stack
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		s, d, err := b.setup(pool, rec, filepath.Join(b.dir, fmt.Sprintf("wal-%d", i)))
		if err != nil {
			return nil, err
		}
		st, setups = s, append(setups, d.Seconds())
	}
	defer st.close()

	seg := b.length * 7 / (20 * rounds)
	satCount := int(float64(w.satOps) * b.length.Seconds() / 20 / rounds)
	var los, his, sats []*phase
	var cpu, perCPU []float64
	for r := 0; r < rounds; r++ {
		if err := b.freshSessions(st, pool, rec); err != nil {
			return nil, err
		}
		lo, _, _, err := b.open(st, pool, fmt.Sprintf("lo-%d", r), w.lo, seg)
		if err != nil {
			return nil, err
		}
		hi, before, after, err := b.open(st, pool, fmt.Sprintf("hi-%d", r), w.hi, seg)
		if err != nil {
			return nil, err
		}
		d := after.os.sub(before.os)
		cpu = append(cpu, ratio(float64((d.cpu-hi.dispatchCPU).Microseconds()), float64(after.done-before.done)))
		sat, satCPU, err := b.closed(st, pool, fmt.Sprintf("sat-%d", r), satCount)
		if err != nil {
			return nil, err
		}
		perCPU = append(perCPU, ratio(float64(len(sat.samples)), satCPU.Seconds()))
		los, his, sats = append(los, lo), append(his, hi), append(sats, sat)
	}
	heap := restingHeap()

	res := newResult(rec, append(append(los, his...), sats...)...)
	res.add("cpu_us_per_op", median(cpu), "us", len(cpu))
	// Closed-loop CPU per op follows the WAL's group-commit batching,
	// which follows fsync latency on a shared disk: too unsteady for a
	// bound (0.29 spread on durable-rw), so it is a table row here and
	// an unbounded metric of the traced run.
	res.note("sat_ops_per_cpu_s", median(perCPU), "ops/cpu_s", len(perCPU))
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("heap_mb", heap, "MB", heapSamples)
	wallClock(los, his, sats, res.note)
	res.note("err_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", int(res.Attempted))
	res.note("wrong_decisions", float64(res.Wrong), "count", int(res.Attempted))
	return res, nil
}

// heapSamples forced-GC heap readings, heapGap apart, make heap_mb.
const (
	heapSamples = 5
	heapGap     = 100 * time.Millisecond
)

// restingHeap is the live heap in MB at rest: the least of several
// readings, each after a forced GC, so the transient buffers of a
// background WAL checkpoint caught mid-write do not count.
func restingHeap() float64 {
	least := -1.0
	for i := 0; i < heapSamples; i++ {
		if i > 0 {
			time.Sleep(heapGap)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if mb := float64(ms.HeapAlloc) / 1e6; least < 0 || mb < least {
			least = mb
		}
	}
	return least
}

// closed runs one closed-loop segment of count ops and returns it with
// the process CPU time it took.
func (b *bench) closed(st *stack, pool *opPool, label string, count int) (*phase, time.Duration, error) {
	ph := &phase{name: label}
	before, err := readOS()
	if err != nil {
		return nil, 0, err
	}
	if err := runClosed(st.tg, ph, pool, b.w.lanes, b.w.cap, count, b.seed); err != nil {
		return nil, 0, err
	}
	after, err := readOS()
	return ph, after.cpu - before.cpu, err
}

// wallClock reports the wall-clock latencies and the closed-loop rate.
// On a small shared machine they move with the host's load (CPU steal
// swung them by 2–10× between runs), so no bound can hold them: the
// untraced run shows them in its table, the traced run reports them
// among its unbounded metrics.
func wallClock(los, his, sats []*phase, report func(string, float64, string, int)) {
	for _, l := range []struct {
		name string
		phs  []*phase
	}{{"lo", los}, {"hi", his}} {
		p50, n := pooledLatency(l.phs, 0.50)
		p99, _ := pooledLatency(l.phs, 0.99)
		report("lat_p50_us."+l.name, p50, "us", n)
		report("lat_p99_us."+l.name, p99, "us", n)
	}
	sat, n := segRate(sats)
	report("sat_ops_s", sat, "ops/s", n)
}

// runTraced is the traced run behind the per-layer metrics. The wire
// stack and both replay twins see the same op stream. Each round runs
// lo and hi untraced (the replay waits) with counters around hi for
// the syscall, byte, context-switch, flush and WAL ratios, a short
// closed-loop segment, then lo again with the replay live beside it,
// for the tracing overhead. Last, the lo and hi schedules run against
// a no-op target: the generator's floor.
func (b *bench) runTraced() (*result, error) {
	w := b.w
	pool := b.newPool()
	rec := &recorder{}
	rp, err := newReplayer(b.ctx, w, b.dir, rec)
	if err != nil {
		return nil, err
	}
	rec.replay = rp
	st, _, err := b.setup(pool, rec, filepath.Join(b.dir, "wal"))
	if err != nil {
		rp.close()
		return nil, err
	}
	defer rp.close()
	defer st.close()
	rp.catchUp()

	const tracedRounds = 4
	seg := b.length * 8 / (10 * 3 * tracedRounds)
	satCount := int(float64(w.satOps) * b.length.Seconds() / 20 / (2 * tracedRounds))
	var los, his, sats, tlos []*phase
	var perCPU []float64
	var tot counters
	for r := 0; r < tracedRounds; r++ {
		if err := b.freshSessions(st, pool, rec); err != nil {
			return nil, err
		}
		lo, _, _, err := b.open(st, pool, fmt.Sprintf("lo-%d", r), w.lo, seg)
		if err != nil {
			return nil, err
		}
		hi, before, after, err := b.open(st, pool, fmt.Sprintf("hi-%d", r), w.hi, seg)
		if err != nil {
			return nil, err
		}
		tot.add(before, after)
		tot.os.ctxsw -= hi.dispatchCtxsw
		sat, satCPU, err := b.closed(st, pool, fmt.Sprintf("sat-%d", r), satCount)
		if err != nil {
			return nil, err
		}
		perCPU = append(perCPU, ratio(float64(len(sat.samples)), satCPU.Seconds()))
		rp.catchUp()
		rp.setPaused(false)
		tlo, _, _, err := b.open(st, pool, fmt.Sprintf("lo-%d", r), w.lo, seg)
		if err != nil {
			return nil, err
		}
		rp.catchUp()
		los, his, sats, tlos = append(los, lo), append(his, hi), append(sats, sat), append(tlos, tlo)
	}

	floorRec := &recorder{noVerdict: true}
	var floor []*phase
	for _, s := range []struct {
		label string
		rate  float64
	}{{"lo-0", w.lo}, {"hi-0", w.hi}} {
		length := b.length / 20
		ph := &phase{name: "floor-" + s.label, length: int64(length)}
		if err := runOpen(noopTarget{floorRec}, ph, poissonSchedule(pool, w.lanes, s.rate, length, b.seed, s.label)); err != nil {
			return nil, err
		}
		floor = append(floor, ph)
	}

	res := newResult(rec, append(append(append(los, his...), sats...), tlos...)...)
	ops := float64(tot.done)
	late := lateness(append(los, his...)...)
	res.add("gen.late_p50_us", us(quantile(late, 0.50)), "us", len(late))
	res.add("gen.late_p99_us", us(quantile(late, 0.99)), "us", len(late))
	fl := lateness(floor...)
	res.add("gen.floor_p50_us", us(quantile(fl, 0.50)), "us", len(fl))
	res.add("gen.floor_p99_us", us(quantile(fl, 0.99)), "us", len(fl))

	res.add("io.syscalls_per_op", ratio(float64(tot.os.syscalls), ops), "count", int(ops))
	res.add("io.bytes_per_op", ratio(float64(tot.os.bytes), ops), "B", int(ops))
	res.add("proc.ctxsw_per_op", ratio(float64(tot.os.ctxsw), ops), "count", int(ops))
	res.add("proxy.frames_per_flush", ratio(float64(tot.srv.WriteFrames), float64(tot.srv.WriteFlushes)), "ratio", tot.srv.WriteFlushes)
	inl := tot.srv.InlineHits + tot.srv.InlineBypass
	res.add("proxy.inline_share", ratio(float64(tot.srv.InlineHits), float64(inl)), "ratio", inl)

	svc := us(quantile(rp.svc, 0.50))
	tloP50, ntlo := pooledLatency(tlos, 0.50)
	loP50, _ := pooledLatency(los, 0.50)
	res.add("ingress.p50_us", tloP50-us(quantile(lateness(tlos...), 0.50))-svc, "us", ntlo)
	res.add("svc.p50_us", svc, "us", len(rp.svc))
	res.add("svc.p99_us", us(quantile(rp.svc, 0.99)), "us", len(rp.svc))
	res.add("parse.p50_us", us(quantile(rp.parse, 0.50)), "us", len(rp.parse))
	res.add("checker.p50_us", us(quantile(rp.check, 0.50)), "us", len(rp.check))
	res.add("checker.p99_us", us(quantile(rp.check, 0.99)), "us", len(rp.check))
	res.add("checker.cold_p50_us", us(quantile(rp.cold, 0.50)), "us", len(rp.cold))
	for _, t := range []struct{ name, tier string }{
		{"front", checker.TierFront}, {"histfree", checker.TierHistFree}, {"template", checker.TierTemplate}, {"cold", ""},
	} {
		res.add("checker."+t.name+"_share", ratio(float64(rp.tiers[t.tier]), float64(rp.decisions)), "ratio", rp.decisions)
	}
	res.add("engine.p50_us", us(quantile(rp.eng, 0.50)), "us", len(rp.eng))
	res.add("engine.p99_us", us(quantile(rp.eng, 0.99)), "us", len(rp.eng))
	res.add("trace.append_p50_us", us(quantile(rp.app, 0.50)), "us", len(rp.app))
	res.add("trace.append_p99_us", us(quantile(rp.app, 0.99)), "us", len(rp.app))
	res.add("respond.p50_us", us(quantile(rp.respond, 0.50)), "us", len(rp.respond))
	res.add("trace.len_end", rp.meanTraceLen(), "count", len(rp.trs))
	res.add("durable.fsyncs_per_op", ratio(float64(tot.wal.Fsyncs), ops), "count", int(ops))
	res.add("durable.appends_per_fsync", ratio(float64(tot.wal.Appends), float64(tot.wal.Fsyncs)), "ratio", int(tot.wal.Fsyncs))
	res.add("durable.bytes_per_op", ratio(float64(tot.wal.AppendedBytes), ops), "B", int(ops))
	var ckpts int64
	if m := st.srv.Durable(); m != nil {
		ckpts = m.Stats().Checkpoints
	}
	res.add("durable.checkpoints", float64(ckpts), "count", 1)
	res.add("layers.sum_ratio", median(rp.sumRatio), "ratio", len(rp.sumRatio))
	res.add("traced.p50_ratio", ratio(tloP50, loP50), "ratio", ntlo)
	res.add("err_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", int(res.Attempted))
	res.add("wrong_decisions", float64(res.Wrong), "count", int(res.Attempted))
	if w.durable {
		res.note("durable.append_p50_us", us(quantile(rp.app, 0.50)), "us", len(rp.app))
		res.note("durable.append_p99_us", us(quantile(rp.app, 0.99)), "us", len(rp.app))
	}
	if len(rp.write) > 0 {
		res.note("engine.write_p50_us", us(quantile(rp.write, 0.50)), "us", len(rp.write))
	}
	wallClock(los, his, sats, res.add)
	res.add("sat_ops_per_cpu_s", median(perCPU), "ops/cpu_s", len(perCPU))
	res.note("lat_p50_us.lo_traced", tloP50, "us", ntlo)
	return res, nil
}

// result is one run's outcome. Metrics go into the JSON line; notes
// only into the table (measures that exist on some workloads only).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Wrong     int64             `json:"-"`
	firstBad  string
	rows      []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(rec *recorder, phases ...*phase) *result {
	r := &result{Metrics: map[string]metric{}}
	for _, ph := range phases {
		r.Attempted += ph.attempted.Load()
		r.Failed += ph.failed.Load()
	}
	r.Wrong = rec.wrong.Load()
	r.firstBad = rec.firstBad
	r.Correct = r.Wrong == 0
	return r
}

func (r *result) add(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit, n)
}

func (r *result) note(name string, v float64, unit string, n int) {
	r.rows = append(r.rows, fmt.Sprintf("# %-28s %14.3f %-6s n=%d", name, v, unit, n))
}

func (r *result) print() {
	sort.Strings(r.rows)
	for _, row := range r.rows {
		fmt.Println(row)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
