package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/proxy"
)

// clock is the benchmark's monotonic time base: every stamp is
// nanoseconds since process start.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// coarseSleep: a wait longer than this sleeps on a runtime timer,
// freeing the dispatcher's P, until sleepMargin before the send time.
// Runtime timers can fire up to a millisecond late when the process is
// idle, so the margin is spun off.
const (
	coarseSleep = 2 * time.Millisecond
	sleepMargin = 1500 * time.Microsecond
	// yieldEvery bounds how long the spin holds its P between yields,
	// so the garbage collector's worker and queued goroutines get the P
	// within that time.
	yieldEvery = 50 * time.Microsecond
)

// waitUntil blocks the dispatcher until monotonic time t. The spin
// checks the clock in a tight loop and yields only every yieldEvery: a
// spin that yields on every check keeps both Ps' run queues non-empty,
// and the network poller then runs only from sysmon, every 10 ms.
func waitUntil(t int64) {
	if d := t - now(); d > int64(coarseSleep) {
		time.Sleep(time.Duration(d) - sleepMargin)
	}
	last := now()
	for {
		n := now()
		if n >= t {
			return
		}
		if n-last >= int64(yieldEvery) {
			runtime.Gosched()
			last = n
		}
	}
}

// outcome is what one request's response said.
type outcome struct {
	blocked bool
	rows    int
	err     error
}

// item is one op in flight.
type item struct {
	op       *op
	ph       *phase
	intended int64 // when the op was due to be sent
	late     int64 // actual send − intended, stamped after the wait
	done     int64
	out      []outcome
	pend     []*proxy.PendingRows // v2 queries awaiting their responses
}

// sample is one completed op: offset of its intended send from the
// phase start, latency from the intended send, and generator lateness.
type sample struct {
	at, lat, late int64
}

// phase collects the completions of one measured interval.
type phase struct {
	name   string
	warm   bool // set-up traffic: checked, but not a layer sample
	start  int64
	length int64

	mu      sync.Mutex
	samples []sample

	attempted   atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	outstanding atomic.Int64
	slots       chan struct{} // closed loop: the in-flight cap
	// Open loop: the dispatcher thread's CPU time and context switches,
	// which the CPU and context-switch ratios leave out.
	dispatchCPU   time.Duration
	dispatchCtxsw int64
}

// target is where the dispatcher's ops go.
type target interface {
	// send hands an op to the system under test without waiting for
	// its response; the target calls finish when the op completes.
	send(it *item)
}

// recorder is the shared completion path: checks each op against the
// workload's expectation and forwards it to the traced replay.
type recorder struct {
	wrong     atomic.Int64
	firstMu   sync.Mutex
	firstBad  string
	replay    *replayer // nil in untraced runs
	noVerdict bool      // no-op target: nothing to check
}

func (r *recorder) mismatch(format string, args ...any) {
	r.wrong.Add(1)
	r.firstMu.Lock()
	if r.firstBad == "" {
		r.firstBad = fmt.Sprintf(format, args...)
	}
	r.firstMu.Unlock()
}

// finish records a completed op. Every target calls it exactly once
// per op, from whichever goroutine saw the last response.
func (r *recorder) finish(it *item) {
	it.done = now()
	ph := it.ph
	failed := false
	if !r.noVerdict {
		for i, want := range it.op.reqs {
			got := it.out[i]
			switch {
			case got.err != nil:
				failed = true
			case got.blocked != want.blocked || (!got.blocked && got.rows != want.rows):
				r.mismatch("%s on lane %d, request %d (%s %v): got blocked=%v rows=%d, want blocked=%v rows=%d",
					it.op.name, it.op.lane, i, want.sql, want.args, got.blocked, got.rows, want.blocked, want.rows)
			}
		}
	}
	if failed {
		ph.failed.Add(1)
	} else {
		ph.completed.Add(1)
		ph.mu.Lock()
		ph.samples = append(ph.samples, sample{at: it.intended - ph.start, lat: it.done - it.intended, late: it.late})
		ph.mu.Unlock()
	}
	if r.replay != nil && !failed {
		r.replay.push(it)
	}
	if ph.slots != nil {
		<-ph.slots
	}
	ph.outstanding.Add(-1)
}

// schedEntry is one open-loop arrival: offset from the phase start.
type schedEntry struct {
	at int64
	op *op
}

// poissonSchedule draws the arrivals of one open-loop phase: Poisson
// at rate ops/s for length, ops drawn from the pool. The same seed and
// label give the same schedule.
func poissonSchedule(pool *opPool, lanes int, rate float64, length time.Duration, seed int64, label string) []schedEntry {
	rng := rand.New(rand.NewSource(seed ^ labelHash(label)))
	var out []schedEntry
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := int64(t * 1e9)
		if at >= int64(length) {
			return out
		}
		out = append(out, schedEntry{at: at, op: pool.draw(rng, lanes)})
	}
}

func labelHash(s string) int64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h >> 1)
}

// drainLimit bounds how long a phase waits for its last responses;
// anything still outstanding then counts as failed.
const drainLimit = 30 * time.Second

func drain(ph *phase) error {
	deadline := time.Now().Add(drainLimit)
	for ph.outstanding.Load() > 0 {
		if time.Now().After(deadline) {
			n := ph.outstanding.Load()
			ph.failed.Add(n)
			return fmt.Errorf("%s: %d ops still outstanding after %v", ph.name, n, drainLimit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// runOpen drives one open-loop phase from a single dispatcher
// goroutine: it waits for each arrival's send time, stamps the actual
// send instant after the wait, and hands the op to the target.
func runOpen(tg target, ph *phase, sched []schedEntry) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Locked to its thread, the dispatcher's yields hand the P over
		// for real, and the thread's CPU time is the dispatcher's alone.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cpu, csw := threadUsage()
		ph.start = now()
		for _, s := range sched {
			due := ph.start + s.at
			waitUntil(due)
			it := &item{op: s.op, ph: ph, intended: due}
			it.late = now() - due
			ph.attempted.Add(1)
			ph.outstanding.Add(1)
			tg.send(it)
		}
		cpu2, csw2 := threadUsage()
		ph.dispatchCPU, ph.dispatchCtxsw = cpu2-cpu, csw2-csw
	}()
	<-done
	return drain(ph)
}

// threadUsage is the calling OS thread's user+system CPU time and its
// context switches.
func threadUsage() (time.Duration, int64) {
	const rusageThread = 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Nvcsw + ru.Nivcsw
}

// runClosed drives a closed loop: at most inFlight ops outstanding,
// the next sent as soon as one completes, until count ops have
// completed. A fixed count, not a fixed time, keeps the run's state
// (trace lengths, heap) independent of how fast the machine was.
func runClosed(tg target, ph *phase, pool *opPool, lanes, inFlight, count int, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ labelHash(ph.name)))
	ph.slots = make(chan struct{}, inFlight)
	ph.start = now()
	for n := 0; n < count; n++ {
		ph.slots <- struct{}{}
		it := &item{op: pool.draw(rng, lanes), ph: ph}
		it.intended = now()
		ph.attempted.Add(1)
		ph.outstanding.Add(1)
		tg.send(it)
	}
	err := drain(ph)
	ph.length = now() - ph.start
	return err
}

// noopTarget completes every op the instant it is sent: running a
// schedule against it measures the generator's own lateness floor.
type noopTarget struct{ rec *recorder }

func (t noopTarget) send(it *item) { t.rec.finish(it) }
