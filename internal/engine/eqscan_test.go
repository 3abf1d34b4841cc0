package engine

import (
	"math/rand"
	"testing"
)

// TestEqScanParity pins the bound equality-scan fast path to the
// generic evaluator: every query runs twice (fast path on, then off
// via noEqScan) and the rendered results must match byte-for-byte —
// columns, rows, row order. The list mixes shapes the fast path
// serves (single table, AND-of-comparisons, plain projection) with
// shapes that must fall back (joins, aggregates, subqueries, ORDER BY,
// DISTINCT, qualified stars), so it also guards against the fast path
// claiming a query it cannot serve.
func TestEqScanParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randSeededDB(t, rng, 30)

	queries := []string{
		// In-scope shapes.
		"SELECT EId FROM Attendance WHERE UId = 5",
		"SELECT UId, EId FROM Attendance WHERE UId = 5 AND EId = 6",
		"SELECT 1 FROM Attendance WHERE UId = 5 AND EId = 6",
		"SELECT Name FROM Users WHERE UId = 2",
		"SELECT * FROM Users WHERE UId = 3",
		"SELECT * FROM Events WHERE EId > 10 AND EId <= 14",
		"SELECT Title FROM Events WHERE Title LIKE 'e%'",
		"SELECT Name FROM Users WHERE 2 = UId",
		"SELECT Name FROM Users WHERE UId <> 2 AND UId < 6",
		"SELECT u.Name FROM Users u WHERE u.UId = 4",
		"SELECT Notes FROM Events WHERE EId = 6",        // NULL projection
		"SELECT Title FROM Events WHERE Notes = 'nope'", // NULL comparisons filter
		"SELECT EId FROM Attendance WHERE UId = 99999",  // empty result
		// Fast path must decline these; parity still holds via fallback.
		"SELECT e.EId FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 5",
		"SELECT COUNT(*) FROM Attendance WHERE UId = 5",
		"SELECT EId FROM Attendance WHERE UId = 5 ORDER BY EId",
		"SELECT DISTINCT UId FROM Attendance WHERE UId < 10",
		"SELECT EId FROM Attendance WHERE UId = 5 OR UId = 6",
		"SELECT EId FROM Attendance WHERE UId IN (5, 6)",
		"SELECT Title FROM Events WHERE EXISTS (SELECT 1 FROM Attendance WHERE Attendance.EId = Events.EId)",
		"SELECT u.* FROM Users u WHERE u.UId = 2",
		"SELECT LOWER(Name) FROM Users WHERE UId = 2",
		"SELECT EId FROM Attendance WHERE UId = 5 LIMIT 1",
		"SELECT Title FROM Events WHERE Notes IS NULL AND EId < 8",
	}
	for _, q := range queries {
		db.noEqScan = false
		fast := mustQuery(t, db, q)
		db.noEqScan = true
		generic := mustQuery(t, db, q)
		db.noEqScan = false
		if fast.String() != generic.String() {
			t.Errorf("eq-scan parity broken for %q:\nfast path:\n%s\ngeneric:\n%s", q, fast, generic)
		}
	}
}

// TestEqScanRandomizedParity hammers the fast path with generated
// single-table conjunction queries over random data — every eligible
// (column, op, literal) combination the planner accepts must agree
// with the generic evaluator.
func TestEqScanRandomizedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randSeededDB(t, rng, 40)

	cols := []string{"UId", "EId"}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	for i := 0; i < 300; i++ {
		q := "SELECT UId, EId FROM Attendance WHERE "
		n := rng.Intn(3) + 1
		for c := 0; c < n; c++ {
			if c > 0 {
				q += " AND "
			}
			col := cols[rng.Intn(len(cols))]
			op := ops[rng.Intn(len(ops))]
			lit := rng.Intn(50)
			if rng.Intn(4) == 0 {
				q += itoa(lit) + " " + op + " " + col
			} else {
				q += col + " " + op + " " + itoa(lit)
			}
		}
		db.noEqScan = false
		fast := mustQuery(t, db, q)
		db.noEqScan = true
		generic := mustQuery(t, db, q)
		db.noEqScan = false
		if fast.String() != generic.String() {
			t.Fatalf("randomized parity broken for %q:\nfast path:\n%s\ngeneric:\n%s", q, fast, generic)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
