package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// pooledLatency is the q-quantile of op latency over all segments of
// one load level, in µs, with the sample count. The levels are
// interleaved through the run, so each level's pool spans the whole
// run: a slow second on a shared machine lands in every level a
// little instead of in one level entirely.
func pooledLatency(phs []*phase, q float64) (float64, int) {
	var xs []int64
	for _, ph := range phs {
		for _, s := range ph.samples {
			xs = append(xs, s.lat)
		}
	}
	return us(quantile(xs, q)), len(xs)
}

// segRate is the median over segments of completed ops per second.
func segRate(phs []*phase) (float64, int) {
	var vals []float64
	n := 0
	for _, ph := range phs {
		vals = append(vals, float64(len(ph.samples))/(float64(ph.length)/1e9))
		n += len(ph.samples)
	}
	return median(vals), n
}

func lateness(phases ...*phase) []int64 {
	var out []int64
	for _, ph := range phases {
		for _, s := range ph.samples {
			out = append(out, s.late)
		}
	}
	return out
}

// osCounters are the process-wide counters read around a measured
// phase: /proc/self/io and getrusage.
type osCounters struct {
	syscalls, bytes int64 // syscr+syscw, rchar+wchar
	cpu             time.Duration
	ctxsw           int64
}

func readOS() (osCounters, error) {
	var c osCounters
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return c, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "syscr", "syscw":
			c.syscalls += n
		case "rchar", "wchar":
			c.bytes += n
		}
	}
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("read /proc/self/io: %w", err)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	c.ctxsw = ru.Nvcsw + ru.Nivcsw
	return c, nil
}

func (c osCounters) sub(o osCounters) osCounters {
	return osCounters{c.syscalls - o.syscalls, c.bytes - o.bytes, c.cpu - o.cpu, c.ctxsw - o.ctxsw}
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// cpuJiffies are the machine-wide totals of /proc/stat's cpu line. The
// steal share over a run says how much of it the host took away; the
// header prints it so a slow run can be told from a slow program.
type cpuJiffies struct{ total, steal int64 }

func stealJiffies() cpuJiffies {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuJiffies{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var c cpuJiffies
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			c.total += n
		}
		if i == 7 {
			c.steal = n
		}
	}
	return c
}

func (c cpuJiffies) pct(since cpuJiffies) float64 {
	return 100 * ratio(float64(c.steal-since.steal), float64(c.total-since.total))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
