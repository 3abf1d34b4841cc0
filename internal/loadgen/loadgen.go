package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies one scheduled operation: its position in the arrival
// schedule and the session it executes on.
type Op struct {
	// Seq is the operation's index in arrival order.
	Seq int
	// Session is the session lane the operation runs on, in
	// [0, Schedule sessions).
	Session int
}

// Target is the system under test. Do issues one operation and blocks
// until its response; the runner measures completion against the
// operation's intended send time. Do must be safe for concurrent use.
type Target interface {
	Do(ctx context.Context, op Op) error
}

// TargetFunc adapts a function to Target.
type TargetFunc func(ctx context.Context, op Op) error

// Do implements Target.
func (f TargetFunc) Do(ctx context.Context, op Op) error { return f(ctx, op) }

// Schedule is a precomputed open-loop arrival plan: the intended send
// offset of every operation (from the run's start instant) and its
// session assignment. Precomputing removes RNG work, session picking,
// and float math from the send path, and makes runs with the same seed
// byte-for-byte reproducible.
type Schedule struct {
	// Offsets[i] is operation i's intended send time, relative to the
	// run start. Nondecreasing.
	Offsets []time.Duration
	// Session[i] is operation i's session index.
	Session []int
	// QPS is the offered rate the offsets were drawn for.
	QPS float64
}

// NewSchedule draws n Poisson arrivals at rate qps — exponential
// interarrival gaps, the standard open-loop model, so bursts occur
// naturally instead of the metronome cadence a fixed gap would give —
// and assigns each to a uniformly random session in [0, sessions).
// The seed fixes the whole plan.
func NewSchedule(n int, qps float64, sessions int, seed int64) (*Schedule, error) {
	if n <= 0 {
		return nil, errors.New("loadgen: schedule needs n > 0 operations")
	}
	if qps <= 0 {
		return nil, errors.New("loadgen: schedule needs qps > 0")
	}
	if sessions <= 0 {
		return nil, errors.New("loadgen: schedule needs sessions > 0")
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{
		Offsets: make([]time.Duration, n),
		Session: make([]int, n),
		QPS:     qps,
	}
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / qps
		s.Offsets[i] = time.Duration(t * float64(time.Second))
		s.Session[i] = rng.Intn(sessions)
	}
	return s, nil
}

// Span is the schedule's intended duration: the last arrival's offset.
func (s *Schedule) Span() time.Duration {
	return s.Offsets[len(s.Offsets)-1]
}

// Config configures one open-loop run.
type Config struct {
	Target   Target
	Schedule *Schedule
	// Workers bounds concurrent in-flight operations. The schedule, not
	// the worker count, sets the offered rate: when all workers are
	// busy the next send stalls, and because latency is measured from
	// the INTENDED send time the stall is charged to the system under
	// test rather than hidden. Defaults to 64.
	Workers int
	// Warmup excludes the first n operations from the latency
	// histogram (they still execute and count toward errors).
	Warmup int
}

// Result is one run's outcome.
type Result struct {
	Ops    int // operations issued
	Errors int // operations whose Do returned a non-ctx error

	// Elapsed is first intended send to last completion.
	Elapsed time.Duration
	// OfferedQPS is the schedule's target rate; AchievedQPS is
	// completions over Elapsed.
	OfferedQPS  float64
	AchievedQPS float64
	// MaxLateness is the worst gap between an operation's intended and
	// actual send instant — how far the generator itself fell behind
	// schedule. Latencies already include it; it is reported so a run
	// where the GENERATOR was the bottleneck is identifiable.
	MaxLateness time.Duration

	// Latency holds completion-minus-intended-send for every
	// post-warmup operation, in microseconds.
	Latency Hist
}

// Run executes the schedule against the target. It returns when every
// operation has completed or ctx is canceled (the Result then covers
// the operations that did run). The first operation's intended send
// time is Run's start instant.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Target == nil || cfg.Schedule == nil || len(cfg.Schedule.Offsets) == 0 {
		return nil, errors.New("loadgen: run needs a target and a non-empty schedule")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 64
	}
	n := len(cfg.Schedule.Offsets)
	if workers > n {
		workers = n
	}

	var (
		next     atomic.Int64
		errs     atomic.Int64
		lateness atomic.Int64 // nanoseconds, max via CAS loop
		wg       sync.WaitGroup
	)
	perWorker := make([]Hist, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(hist *Hist) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				intended := start.Add(cfg.Schedule.Offsets[i])
				sent := time.Now()
				if wait := intended.Sub(sent); wait > 0 {
					timer := time.NewTimer(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						timer.Stop()
						return
					}
					// Timer oversleep is generator lateness too.
					sent = time.Now()
				}
				if late := int64(sent.Sub(intended)); late > 0 {
					for {
						cur := lateness.Load()
						if late <= cur || lateness.CompareAndSwap(cur, late) {
							break
						}
					}
				}
				err := cfg.Target.Do(ctx, Op{Seq: i, Session: cfg.Schedule.Session[i]})
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					errs.Add(1)
				}
				if i >= cfg.Warmup {
					hist.Micros(time.Since(intended))
				}
			}
		}(&perWorker[w])
	}
	wg.Wait()

	res := &Result{
		Errors:      int(errs.Load()),
		Elapsed:     time.Since(start),
		OfferedQPS:  cfg.Schedule.QPS,
		MaxLateness: time.Duration(lateness.Load()),
	}
	issued := int(next.Load())
	if issued > n {
		issued = n
	}
	res.Ops = issued
	for w := range perWorker {
		res.Latency.Merge(&perWorker[w])
	}
	if res.Elapsed > 0 {
		res.AchievedQPS = float64(issued-res.Errors) / res.Elapsed.Seconds()
	}
	return res, ctx.Err()
}

// String summarizes the result for logs.
func (r *Result) String() string {
	return fmt.Sprintf("ops=%d errs=%d offered=%.0fqps achieved=%.0fqps late=%s lat[%s]",
		r.Ops, r.Errors, r.OfferedQPS, r.AchievedQPS, r.MaxLateness, r.Latency.String())
}
