package main

import (
	"fmt"
	"math/rand"
)

// The calendar app's statements (internal/apps/calendar.go). Every
// workload draws from these; the policy is the fixture's V1/V2/VMe.
const (
	sqlProfile = "SELECT Name FROM Users WHERE UId = ?"
	sqlProbe   = "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?"
	sqlFetch   = "SELECT * FROM Events WHERE EId = ?"
	sqlTitles  = "SELECT Title FROM Events"
	sqlMine    = "SELECT EId FROM Attendance WHERE UId = ?"
	sqlTitle   = "SELECT Title FROM Events WHERE EId = ?"
	sqlNotes   = "UPDATE Events SET Notes = ? WHERE EId = ?"
	sqlAttend  = "INSERT INTO Attendance (UId, EId) VALUES (?, ?)"
	sqlLeave   = "DELETE FROM Attendance WHERE UId = ? AND EId = ?"
)

// request is one statement of an op with the outcome the benchmark
// expects from the data it seeded: blocked, or allowed with rows rows
// (for a write, rows is the affected count).
type request struct {
	exec    bool
	sql     string
	args    []any
	blocked bool
	rows    int
}

// op is one unit of offered load: one or more requests sent back to
// back on one session, in order. Its latency runs from its intended
// send time to the arrival of its last response.
type op struct {
	lane int
	name string
	reqs []request
}

// workload is one traffic mix. Rates are ops/s, frozen here so the
// parent and a change are driven identically.
type workload struct {
	name    string
	ingress string // "v2" or "pg"
	users   int    // calendar seed size (users = events; attendance ≈ 2×)
	lanes   int    // sessions: v2 lanes, or pg connections
	durable bool
	lo, hi  float64
	cap     int // closed-loop in-flight cap
	satOps  int // closed-loop ops per run at 20 s, split over the rounds
	warmOps int // ops sent during set-up to fill caches

	// principal maps a lane to its user id.
	principal func(lane int) int64
	// pool builds every distinct op the workload sends; mix draws one.
	pool func(w *workload, rng *rand.Rand) *opPool
}

// opPool holds a workload's distinct ops per lane, grouped by kind,
// and the kind weights.
type opPool struct {
	kinds   []string
	weights []float64
	byKind  map[string][][]*op // kind → lane → candidates
}

func (p *opPool) add(kind string, o *op) {
	lanes := p.byKind[kind]
	for len(lanes) <= o.lane {
		lanes = append(lanes, nil)
	}
	lanes[o.lane] = append(lanes[o.lane], o)
	p.byKind[kind] = lanes
}

// draw picks a lane uniformly, then a kind by weight, then one of that
// lane's ops of the kind.
func (p *opPool) draw(rng *rand.Rand, lanes int) *op {
	lane := rng.Intn(lanes)
	x := rng.Float64()
	k := len(p.kinds) - 1
	for i, w := range p.weights {
		if x < w {
			k = i
			break
		}
		x -= w
	}
	c := p.byKind[p.kinds[k]][lane]
	return c[rng.Intn(len(c))]
}

// attends mirrors the calendar seed: user u attends events u%n+1 and
// (u+1)%n+1.
func attends(u int64, n int) [2]int64 {
	return [2]int64{u%int64(n) + 1, (u+1)%int64(n) + 1}
}

func q(sql string, rows int, args ...any) request {
	return request{sql: sql, args: args, rows: rows}
}

func blockedQ(sql string, args ...any) request {
	return request{sql: sql, args: args, blocked: true}
}

func x(sql string, affected int, args ...any) request {
	return request{exec: true, sql: sql, args: args, rows: affected}
}

// warmReads adds the warm mix for one lane: primary-key point reads
// that the checker's front cache answers once warm, a Listing-1
// show_event whose fetch needs the probe's trace entry, and blocked
// reads. The front cache holds only decisions allowed with no history
// facts, so blocked reads and fetches can never be front hits; their
// weights stay small enough that front hits remain ≥ 95% of decisions.
func warmReads(p *opPool, w *workload, lane int) {
	u := w.principal(lane)
	ev := attends(u, w.users)
	other := u%int64(w.users) + 1
	p.add("profile", &op{lane: lane, name: "own-profile", reqs: []request{q(sqlProfile, 1, u)}})
	for _, e := range ev {
		p.add("probe", &op{lane: lane, name: "attendance-probe", reqs: []request{q(sqlProbe, 1, u, e)}})
		p.add("show", &op{lane: lane, name: "show_event", reqs: []request{q(sqlProbe, 1, u, e), q(sqlFetch, 1, e)}})
	}
	p.add("blocked", &op{lane: lane, name: "others-profile", reqs: []request{blockedQ(sqlProfile, other)}})
	p.add("blocked", &op{lane: lane, name: "all-titles", reqs: []request{blockedQ(sqlTitles)}})
}

var warmKinds = []string{"profile", "probe", "show", "blocked"}
var warmWeights = []float64{0.48, 0.48, 0.02, 0.02}

func warmPool(w *workload, _ *rand.Rand) *opPool {
	p := &opPool{kinds: warmKinds, weights: warmWeights, byKind: map[string][][]*op{}}
	for l := 0; l < w.lanes; l++ {
		warmReads(p, w, l)
	}
	return p
}

// durablePool is the warm mix plus 20% writes. Writes touch only rows
// no read looks at: Notes of events past every read principal's, and a
// per-lane Attendance pair inserted and deleted in one op, so every
// read's expected row count holds throughout.
func durablePool(w *workload, _ *rand.Rand) *opPool {
	p := &opPool{byKind: map[string][][]*op{}}
	for i, k := range warmKinds {
		p.kinds = append(p.kinds, k)
		p.weights = append(p.weights, warmWeights[i]*0.8)
	}
	p.kinds = append(p.kinds, "update", "attend")
	p.weights = append(p.weights, 0.1, 0.1)
	for l := 0; l < w.lanes; l++ {
		warmReads(p, w, l)
		for i := 0; i < 4; i++ {
			e := int64(durableNoteEvent + (l*4+i)%durableNoteSpan)
			p.add("update", &op{lane: l, name: "update-notes", reqs: []request{
				x(sqlNotes, 1, fmt.Sprintf("note %d/%d", l, i), e)}})
		}
		wu, we := int64(durableWriterUser+l%64), int64(durableWriterEvent+l/64)
		p.add("attend", &op{lane: l, name: "attend-pair", reqs: []request{
			x(sqlAttend, 1, wu, we), x(sqlLeave, 1, wu, we)}})
	}
	return p
}

// durable-rw's write targets: seed users 65..128 attend at most events
// up to 130, so pairs (65..128, 150..153) never collide with seed rows,
// and events 140..191 are attended by no read principal (1..64).
const (
	durableWriterUser  = 65
	durableWriterEvent = 150
	durableNoteEvent   = 140
	durableNoteSpan    = 52
)

// historyPool: one lane per principal over a larger calendar. Each op
// is a whole handler call of the calendar app: show_event (Listing 1:
// probe, then the fetch the probe's trace entry allows), list_events
// (an Attendance scan, then one Title fetch per attended event, each
// allowed by the scan's trace entry), and show_event on someone else's
// event, whose fetch ends blocked. The distinct (statement, args,
// principal) tuples far exceed the 4096-entry front cache.
func historyPool(w *workload, rng *rand.Rand) *opPool {
	p := &opPool{
		kinds:   []string{"show", "list", "other"},
		weights: []float64{0.4, 0.2, 0.4},
		byKind:  map[string][][]*op{},
	}
	for l := 0; l < w.lanes; l++ {
		u := w.principal(l)
		ev := attends(u, w.users)
		for _, e := range ev {
			p.add("show", &op{lane: l, name: "show_event", reqs: []request{q(sqlProbe, 1, u, e), q(sqlFetch, 1, e)}})
		}
		p.add("list", &op{lane: l, name: "list_events", reqs: []request{q(sqlMine, 2, u), q(sqlTitle, 1, ev[0]), q(sqlTitle, 1, ev[1])}})
		for i := 0; i < 8; i++ {
			e := int64(rng.Intn(w.users) + 1)
			for e == ev[0] || e == ev[1] {
				e = int64(rng.Intn(w.users) + 1)
			}
			p.add("other", &op{lane: l, name: "show_event-other", reqs: []request{q(sqlProbe, 0, u, e), blockedQ(sqlFetch, e)}})
		}
	}
	return p
}

var workloads = []*workload{
	{
		name: "warm-v2", ingress: "v2", users: 64, lanes: 256,
		lo: 2000, hi: 7000, cap: 64, satOps: 150000, warmOps: 4000,
		principal: func(l int) int64 { return int64(l%64 + 1) },
		pool:      warmPool,
	},
	{
		name: "history-v2", ingress: "v2", users: 1024, lanes: 1024,
		lo: 800, hi: 1600, cap: 32, satOps: 45000, warmOps: 3000,
		principal: func(l int) int64 { return int64(l + 1) },
		pool:      historyPool,
	},
	{
		name: "durable-rw", ingress: "v2", users: 192, lanes: 256, durable: true,
		lo: 500, hi: 1200, cap: 64, satOps: 36000, warmOps: 4000,
		principal: func(l int) int64 { return int64(l%64 + 1) },
		pool:      durablePool,
	},
	{
		name: "warm-pg", ingress: "pg", users: 64, lanes: 2,
		lo: 2000, hi: 5000, cap: 32, satOps: 150000, warmOps: 4000,
		principal: func(l int) int64 { return int64(l + 1) },
		pool:      warmPool,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
