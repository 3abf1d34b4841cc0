package loadgen

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestScheduleExponential checks the arrival plan is actually Poisson:
// interarrival gaps with mean 1/qps and coefficient of variation ≈ 1
// (the exponential signature a fixed-gap metronome would fail), and
// sessions spread across the whole range.
func TestScheduleExponential(t *testing.T) {
	const (
		n        = 50000
		qps      = 12500.0
		sessions = 32
	)
	s, err := NewSchedule(n, qps, sessions, 1)
	if err != nil {
		t.Fatal(err)
	}
	gaps := make([]float64, n)
	prev := time.Duration(0)
	for i, off := range s.Offsets {
		if off < prev {
			t.Fatalf("offsets must be nondecreasing: %v after %v at %d", off, prev, i)
		}
		gaps[i] = (off - prev).Seconds()
		prev = off
	}
	var sum, sumSq float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / n
	for _, g := range gaps {
		sumSq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sumSq/n) / mean

	if want := 1 / qps; math.Abs(mean-want)/want > 0.03 {
		t.Errorf("mean interarrival %.3gs, want %.3gs ±3%%", mean, want)
	}
	// Exponential gaps have CV exactly 1; a deterministic schedule has
	// CV 0 and a uniform-jitter one lands near 0.58.
	if cv < 0.9 || cv > 1.1 {
		t.Errorf("interarrival CV %.3f, want ≈1 (exponential)", cv)
	}

	seen := make(map[int]int)
	for _, sid := range s.Session {
		if sid < 0 || sid >= sessions {
			t.Fatalf("session %d out of range", sid)
		}
		seen[sid]++
	}
	if len(seen) != sessions {
		t.Errorf("only %d of %d sessions assigned", len(seen), sessions)
	}

	// Same seed, same plan — reproducibility is part of the contract.
	s2, _ := NewSchedule(n, qps, sessions, 1)
	for i := range s.Offsets {
		if s.Offsets[i] != s2.Offsets[i] || s.Session[i] != s2.Session[i] {
			t.Fatalf("seeded schedule not reproducible at %d", i)
		}
	}
}

// TestRunStallAccounting is the coordinated-omission test: one worker,
// a target that takes ~2ms per op, and a schedule that offers ops
// 20× faster than the target can absorb. A closed-loop driver would
// report ~2ms per op; the open-loop runner must charge each op its
// queueing delay from the INTENDED send time, so the backlog shows up
// as latencies far above service time, growing across the run.
func TestRunStallAccounting(t *testing.T) {
	const (
		n       = 100
		qps     = 10000.0 // intended span: 10ms
		service = 2 * time.Millisecond
	)
	s, err := NewSchedule(n, qps, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Target: TargetFunc(func(ctx context.Context, op Op) error {
			time.Sleep(service)
			return nil
		}),
		Schedule: s,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != n || res.Errors != 0 {
		t.Fatalf("ops=%d errs=%d, want %d/0", res.Ops, res.Errors, n)
	}
	// The run takes ~n*service = 200ms against a 10ms intended span,
	// so the median op waited far beyond its own 2ms of service.
	if p50 := time.Duration(res.Latency.Quantile(0.5)) * time.Microsecond; p50 < 5*service {
		t.Errorf("p50 %v hides the backlog; must be ≫ service time %v", p50, service)
	}
	// Later ops wait longer than earlier ones — the tail must dwarf the
	// median, the signature of measuring from intended send times.
	p99 := res.Latency.Quantile(0.99)
	p50 := res.Latency.Quantile(0.50)
	if p99 < 3*p50/2 {
		t.Errorf("p99 %dµs vs p50 %dµs: backlog growth not visible", p99, p50)
	}
	if res.MaxLateness < service {
		t.Errorf("max lateness %v: the generator demonstrably fell behind, it must say so", res.MaxLateness)
	}
}

// TestRunLatenessCoversOversleep: an operation that waited for its
// timer and woke late was sent late, and MaxLateness must say so. One
// P shared with busy goroutines makes each timer wake-up wait for a
// preemption; the ops are spaced far enough apart that none is already
// late before its wait, so only a stamp taken after the wait sees the
// delay. The target records its own call instants, and MaxLateness
// must cover the largest send delay it observed.
func TestRunLatenessCoversOversleep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		n   = 12
		gap = 25 * time.Millisecond
	)
	s := &Schedule{Offsets: make([]time.Duration, n), Session: make([]int, n), QPS: float64(time.Second / gap)}
	for i := range s.Offsets {
		s.Offsets[i] = time.Duration(i) * gap
	}
	stop := make(chan struct{})
	var spinners sync.WaitGroup
	defer func() {
		close(stop)
		spinners.Wait()
	}()
	calls := make([]time.Time, n)
	res, err := Run(context.Background(), Config{
		Target: TargetFunc(func(ctx context.Context, op Op) error {
			calls[op.Seq] = time.Now()
			if op.Seq == 0 {
				// Op 0 is due at the run's start and went out on time;
				// from here on the P is contended.
				for i := 0; i < 2; i++ {
					spinners.Add(1)
					go func() {
						defer spinners.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
						}
					}()
				}
			}
			return nil
		}),
		Schedule: s,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Op 0's call instant bounds the run's start from above, so delays
	// measured from it never exceed the true ones.
	var worst time.Duration
	for i := 1; i < n; i++ {
		if d := calls[i].Sub(calls[0].Add(s.Offsets[i])); d > worst {
			worst = d
		}
	}
	// The send stamp precedes the target's own clock read by a few
	// instructions.
	const slack = time.Millisecond
	if res.MaxLateness+slack < worst {
		t.Errorf("MaxLateness %v, but the target saw a send %v late", res.MaxLateness, worst)
	}
	t.Logf("worst observed send delay %v, MaxLateness %v", worst, res.MaxLateness)
}

// TestRunKeepsPace: with enough workers and a fast target the runner
// must hold the offered rate and report small latencies.
func TestRunKeepsPace(t *testing.T) {
	const n = 2000
	s, err := NewSchedule(n, 20000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	res, err := Run(context.Background(), Config{
		Target: TargetFunc(func(ctx context.Context, op Op) error {
			calls.Add(1)
			return nil
		}),
		Schedule: s,
		Workers:  16,
		Warmup:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != n {
		t.Fatalf("target saw %d ops, want %d", got, n)
	}
	if res.Latency.Count() != n-100 {
		t.Fatalf("histogram has %d samples, want %d post-warmup", res.Latency.Count(), n-100)
	}
	// Elapsed tracks the schedule span (~100ms), not some multiple;
	// generous slack for CI scheduling noise.
	if res.Elapsed > s.Span()+500*time.Millisecond {
		t.Errorf("elapsed %v far beyond intended span %v", res.Elapsed, s.Span())
	}
}

// TestRunErrorAndCancel: target errors count, ctx cancellation stops
// the run early and still returns the partial result.
func TestRunErrorAndCancel(t *testing.T) {
	s, err := NewSchedule(1000, 100000, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	res, err := Run(context.Background(), Config{
		Target: TargetFunc(func(ctx context.Context, op Op) error {
			if op.Seq%10 == 3 {
				return boom
			}
			return nil
		}),
		Schedule: s,
		Workers:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 100 {
		t.Errorf("errors=%d, want 100", res.Errors)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	res, err = Run(ctx, Config{
		Target: TargetFunc(func(ctx context.Context, op Op) error {
			if seen.Add(1) == 50 {
				cancel()
			}
			return nil
		}),
		Schedule: s,
		Workers:  4,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || res.Ops >= 1000 {
		t.Fatalf("cancel must stop the run early: %+v", res)
	}
}
