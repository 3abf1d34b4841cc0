// Package engine implements an in-memory relational database engine:
// row storage with primary/unique-key hash indexes, constraint
// checking, and an executor for the SQL subset produced by
// internal/sqlparser. It is the substrate the enforcement proxy
// forwards allowed queries to, standing in for the production DBMS a
// Blockaid-style deployment would use.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obsv"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// Row is one stored tuple, in declared column order.
type Row []sqlvalue.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// key builds a composite index key from the given column positions.
func (r Row) key(cols []int) string {
	var b strings.Builder
	for _, c := range cols {
		b.WriteString(r[c].Key())
		b.WriteByte(0)
	}
	return b.String()
}

// tableData is the storage for one table.
type tableData struct {
	def  *schema.Table
	rows []Row // live rows; deletion swaps with last

	pkCols  []int          // column positions of the PK; nil if none
	pkIndex map[string]int // PK key -> row position

	uniques []uniqueIndex
}

type uniqueIndex struct {
	cols  []int
	index map[string]int
}

// DB is an in-memory database over a fixed schema. It is safe for
// concurrent use; reads take a shared lock.
type DB struct {
	mu     sync.RWMutex
	schema *schema.Schema
	tables map[string]*tableData

	// noEqScan turns off the bound equality-scan fast path (tryEqScan)
	// so the generic evaluator serves every query: the reference oracle
	// of the eq-scan parity tests. Never set outside them; it is not
	// synchronized.
	noEqScan bool

	// obs holds the optional scan instruments (SetMetrics); an atomic
	// pointer so installing metrics never races with running queries.
	obs atomic.Pointer[engineObs]
}

// engineObs bundles the engine's instruments so they install
// atomically.
type engineObs struct {
	queries *obsv.Counter
	scan    *obsv.Histogram
}

// SetMetrics points the engine at an observability registry: every
// QueryCtx counts into engine.queries and times its scan into
// engine.scan.micros. Safe to call at any time, including while
// queries run; a nil registry (or never calling this) keeps the
// zero-overhead path.
func (db *DB) SetMetrics(reg *obsv.Registry) {
	if reg == nil || !reg.Enabled() {
		db.obs.Store(nil)
		return
	}
	db.obs.Store(&engineObs{
		queries: reg.Counter("engine.queries"),
		scan:    reg.Histogram("engine.scan.micros"),
	})
}

// New creates an empty database for the schema.
func New(s *schema.Schema) *DB {
	db := &DB{schema: s, tables: make(map[string]*tableData)}
	for _, t := range s.Tables() {
		td := &tableData{def: t}
		if len(t.PrimaryKey) > 0 {
			td.pkCols = columnPositions(t, t.PrimaryKey)
			td.pkIndex = make(map[string]int)
		}
		for _, uk := range t.UniqueKeys {
			td.uniques = append(td.uniques, uniqueIndex{
				cols:  columnPositions(t, uk),
				index: make(map[string]int),
			})
		}
		db.tables[strings.ToLower(t.Name)] = td
	}
	return db
}

func columnPositions(t *schema.Table, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		p, ok := t.ColumnIndex(n)
		if !ok {
			panic(fmt.Sprintf("engine: unknown column %s.%s", t.Name, n))
		}
		out[i] = p
	}
	return out
}

// Schema returns the database schema.
func (db *DB) Schema() *schema.Schema { return db.schema }

// RowCount returns the number of live rows in the table.
func (db *DB) RowCount(table string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return 0
	}
	return len(td.rows)
}

// Result is the outcome of a SELECT.
type Result struct {
	Columns []string
	Rows    []Row
}

// Empty reports whether the result has no rows.
func (r *Result) Empty() bool { return len(r.Rows) == 0 }

// String renders the result as an aligned text table for debugging.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, " | "))
	b.WriteString("\n")
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		b.WriteString(strings.Join(parts, " | "))
		b.WriteString("\n")
	}
	return b.String()
}

// Exec parses and runs one statement with the given arguments.
// SELECTs return a Result; DML returns a Result with no columns and
// the affected-row count accessible via Affected.
func (db *DB) Exec(sql string, args sqlparser.Args) (*Result, int, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, 0, err
	}
	return db.ExecStmt(stmt, args)
}

// ExecStmt runs a parsed statement.
func (db *DB) ExecStmt(stmt sqlparser.Statement, args sqlparser.Args) (*Result, int, error) {
	bound, err := sqlparser.Bind(stmt, args)
	if err != nil {
		return nil, 0, err
	}
	switch s := bound.(type) {
	case *sqlparser.SelectStmt:
		res, err := db.Query(s)
		return res, 0, err
	case *sqlparser.InsertStmt:
		n, err := db.Insert(s)
		return &Result{}, n, err
	case *sqlparser.UpdateStmt:
		n, err := db.Update(s)
		return &Result{}, n, err
	case *sqlparser.DeleteStmt:
		n, err := db.Delete(s)
		return &Result{}, n, err
	case *sqlparser.CreateTableStmt:
		return nil, 0, fmt.Errorf("engine: CREATE TABLE must go through schema construction")
	}
	return nil, 0, fmt.Errorf("engine: unsupported statement %T", bound)
}

// MustExec is Exec, panicking on error; for seed data in tests.
func (db *DB) MustExec(sql string, argVals ...any) {
	if _, _, err := db.Exec(sql, sqlparser.PositionalArgs(argVals...)); err != nil {
		panic(err)
	}
}

// Insert applies an INSERT statement whose parameters are already
// bound. It enforces NOT NULL, type coercion, PK/unique uniqueness,
// and foreign keys.
func (db *DB) Insert(ins *sqlparser.InsertStmt) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.tables[strings.ToLower(ins.Table)]
	if !ok {
		return 0, fmt.Errorf("engine: no table %q", ins.Table)
	}
	cols := ins.Columns
	if len(cols) == 0 {
		cols = td.def.ColumnNames()
	}
	pos := make([]int, len(cols))
	for i, c := range cols {
		p, ok := td.def.ColumnIndex(c)
		if !ok {
			return 0, fmt.Errorf("engine: table %s has no column %q", td.def.Name, c)
		}
		pos[i] = p
	}
	inserted := 0
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(cols) {
			return inserted, fmt.Errorf("engine: INSERT arity mismatch: %d values for %d columns", len(exprRow), len(cols))
		}
		row := make(Row, len(td.def.Columns))
		for i := range row {
			row[i] = sqlvalue.NewNull()
		}
		for i, e := range exprRow {
			v, err := constEval(e)
			if err != nil {
				return inserted, err
			}
			cv, err := sqlvalue.CoerceTo(v, td.def.Columns[pos[i]].Type)
			if err != nil {
				return inserted, fmt.Errorf("engine: column %s.%s: %v", td.def.Name, cols[i], err)
			}
			row[pos[i]] = cv
		}
		if err := db.insertRowLocked(td, row); err != nil {
			return inserted, err
		}
		inserted++
	}
	return inserted, nil
}

// InsertRow inserts one tuple given as Go values in declared column
// order, enforcing all constraints.
func (db *DB) InsertRow(table string, vals ...any) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if len(vals) != len(td.def.Columns) {
		return fmt.Errorf("engine: InsertRow(%s): %d values for %d columns", table, len(vals), len(td.def.Columns))
	}
	row := make(Row, len(vals))
	for i, v := range vals {
		sv, err := sqlvalue.FromAny(v)
		if err != nil {
			return err
		}
		cv, err := sqlvalue.CoerceTo(sv, td.def.Columns[i].Type)
		if err != nil {
			return fmt.Errorf("engine: column %s.%s: %v", table, td.def.Columns[i].Name, err)
		}
		row[i] = cv
	}
	return db.insertRowLocked(td, row)
}

func (db *DB) insertRowLocked(td *tableData, row Row) error {
	// NOT NULL.
	for i, c := range td.def.Columns {
		if c.NotNull && row[i].IsNull() {
			return fmt.Errorf("engine: NOT NULL violation on %s.%s", td.def.Name, c.Name)
		}
	}
	// PK and unique.
	if td.pkIndex != nil {
		k := row.key(td.pkCols)
		if _, dup := td.pkIndex[k]; dup {
			return fmt.Errorf("engine: primary key violation on %s", td.def.Name)
		}
	}
	for _, u := range td.uniques {
		k := row.key(u.cols)
		if _, dup := u.index[k]; dup {
			return fmt.Errorf("engine: unique violation on %s", td.def.Name)
		}
	}
	// Foreign keys.
	for _, fk := range td.def.ForeignKeys {
		if err := db.checkFKLocked(td.def, fk, row); err != nil {
			return err
		}
	}
	at := len(td.rows)
	td.rows = append(td.rows, row)
	if td.pkIndex != nil {
		td.pkIndex[row.key(td.pkCols)] = at
	}
	for _, u := range td.uniques {
		u.index[row.key(u.cols)] = at
	}
	return nil
}

func (db *DB) checkFKLocked(t *schema.Table, fk schema.ForeignKey, row Row) error {
	vals := make([]sqlvalue.Value, len(fk.Columns))
	anyNull := false
	for i, c := range fk.Columns {
		p, _ := t.ColumnIndex(c)
		vals[i] = row[p]
		if vals[i].IsNull() {
			anyNull = true
		}
	}
	if anyNull {
		return nil // SQL FK semantics: NULL escapes the check
	}
	ref := db.tables[strings.ToLower(fk.RefTable)]
	refPos := columnPositions(ref.def, fk.RefColumns)
	// Fast path: referenced columns are the ref table's PK.
	if ref.pkIndex != nil && equalIntSlices(refPos, ref.pkCols) {
		probe := Row(vals)
		if _, ok := ref.pkIndex[probe.key(rangeInts(len(vals)))]; ok {
			return nil
		}
		return fmt.Errorf("engine: FK violation: %s(%s) -> %s", t.Name, strings.Join(fk.Columns, ","), fk.RefTable)
	}
	for _, rr := range ref.rows {
		match := true
		for i, p := range refPos {
			if !sqlvalue.Identical(rr[p], vals[i]) {
				match = false
				break
			}
		}
		if match {
			return nil
		}
	}
	return fmt.Errorf("engine: FK violation: %s(%s) -> %s", t.Name, strings.Join(fk.Columns, ","), fk.RefTable)
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Update applies an UPDATE whose parameters are bound.
func (db *DB) Update(upd *sqlparser.UpdateStmt) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.tables[strings.ToLower(upd.Table)]
	if !ok {
		return 0, fmt.Errorf("engine: no table %q", upd.Table)
	}
	setPos := make([]int, len(upd.Set))
	for i, a := range upd.Set {
		p, ok := td.def.ColumnIndex(a.Column)
		if !ok {
			return 0, fmt.Errorf("engine: table %s has no column %q", td.def.Name, a.Column)
		}
		setPos[i] = p
	}
	ev := &evaluator{db: db}
	scope := newScope(nil)
	scope.addTable(td.def, strings.ToLower(upd.Table), 0)
	n := 0
	for ri, row := range td.rows {
		keep, err := ev.predicate(upd.Where, scope, row)
		if err != nil {
			return n, err
		}
		if !keep {
			continue
		}
		updated := row.Clone()
		for i, a := range upd.Set {
			v, err := ev.eval(a.Value, scope, row)
			if err != nil {
				return n, err
			}
			cv, err := sqlvalue.CoerceTo(v, td.def.Columns[setPos[i]].Type)
			if err != nil {
				return n, fmt.Errorf("engine: column %s.%s: %v", td.def.Name, a.Column, err)
			}
			updated[setPos[i]] = cv
		}
		if err := db.replaceRowLocked(td, ri, updated); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (db *DB) replaceRowLocked(td *tableData, ri int, updated Row) error {
	old := td.rows[ri]
	for i, c := range td.def.Columns {
		if c.NotNull && updated[i].IsNull() {
			return fmt.Errorf("engine: NOT NULL violation on %s.%s", td.def.Name, c.Name)
		}
	}
	if td.pkIndex != nil {
		ok, nk := old.key(td.pkCols), updated.key(td.pkCols)
		if ok != nk {
			if _, dup := td.pkIndex[nk]; dup {
				return fmt.Errorf("engine: primary key violation on %s", td.def.Name)
			}
			delete(td.pkIndex, ok)
			td.pkIndex[nk] = ri
		}
	}
	for _, u := range td.uniques {
		ok, nk := old.key(u.cols), updated.key(u.cols)
		if ok != nk {
			if _, dup := u.index[nk]; dup {
				return fmt.Errorf("engine: unique violation on %s", td.def.Name)
			}
			delete(u.index, ok)
			u.index[nk] = ri
		}
	}
	for _, fk := range td.def.ForeignKeys {
		if err := db.checkFKLocked(td.def, fk, updated); err != nil {
			return err
		}
	}
	td.rows[ri] = updated
	return nil
}

// Delete applies a DELETE whose parameters are bound.
func (db *DB) Delete(del *sqlparser.DeleteStmt) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.tables[strings.ToLower(del.Table)]
	if !ok {
		return 0, fmt.Errorf("engine: no table %q", del.Table)
	}
	ev := &evaluator{db: db}
	scope := newScope(nil)
	scope.addTable(td.def, strings.ToLower(del.Table), 0)
	var keep []Row
	n := 0
	for _, row := range td.rows {
		match, err := ev.predicate(del.Where, scope, row)
		if err != nil {
			return 0, err
		}
		if match {
			n++
		} else {
			keep = append(keep, row)
		}
	}
	if n == 0 {
		return 0, nil
	}
	td.rows = keep
	db.rebuildIndexesLocked(td)
	return n, nil
}

func (db *DB) rebuildIndexesLocked(td *tableData) {
	if td.pkIndex != nil {
		td.pkIndex = make(map[string]int, len(td.rows))
		for i, r := range td.rows {
			td.pkIndex[r.key(td.pkCols)] = i
		}
	}
	for ui := range td.uniques {
		td.uniques[ui].index = make(map[string]int, len(td.rows))
		for i, r := range td.rows {
			td.uniques[ui].index[r.key(td.uniques[ui].cols)] = i
		}
	}
}

// Snapshot returns a deep copy of all rows of the table, for test
// assertions and the extractor's mutation probing.
func (db *DB) Snapshot(table string) []Row {
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return nil
	}
	out := make([]Row, len(td.rows))
	for i, r := range td.rows {
		out[i] = r.Clone()
	}
	return out
}

// Clone returns an independent copy of the whole database (same
// schema object, copied rows). Used by mutation probing and the
// counterexample search.
func (db *DB) Clone() *DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := New(db.schema)
	for name, td := range db.tables {
		otd := out.tables[name]
		otd.rows = make([]Row, len(td.rows))
		for i, r := range td.rows {
			otd.rows[i] = r.Clone()
		}
		out.rebuildIndexesLocked(otd)
	}
	return out
}

// ContentHash returns an order-independent FNV-1a digest of the full
// database contents (table names and row values). The durable WAL
// stamps it into policy snapshots so crash recovery can warn when the
// database a restored session's history was observed against is not
// the database the proxy now serves. Rows hash independently and are
// combined by addition, so physical row order (which insertion and
// deletion reshuffle) does not affect the digest.
func (db *DB) ContentHash() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hashStr := func(h uint64, s string) uint64 {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		return h
	}
	var sum uint64 = offset64
	for _, n := range names {
		td := db.tables[n]
		sum = hashStr(sum, n)
		sum = hashStr(sum, "\x00")
		var rows uint64
		for _, r := range td.rows {
			h := uint64(offset64)
			for _, v := range r {
				h = hashStr(h, v.Key())
				h = hashStr(h, "\x1f")
			}
			rows += h
		}
		sum ^= rows
		sum *= prime64
	}
	return sum
}

// SetCell overwrites one cell identified by table, row position, and
// column name, bypassing FK checks (mutation probing needs arbitrary
// perturbations). Uniqueness and NOT NULL are still enforced.
func (db *DB) SetCell(table string, rowIdx int, column string, val any) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if rowIdx < 0 || rowIdx >= len(td.rows) {
		return fmt.Errorf("engine: row %d out of range for %s", rowIdx, table)
	}
	p, ok := td.def.ColumnIndex(column)
	if !ok {
		return fmt.Errorf("engine: table %s has no column %q", table, column)
	}
	sv, err := sqlvalue.FromAny(val)
	if err != nil {
		return err
	}
	cv, err := sqlvalue.CoerceTo(sv, td.def.Columns[p].Type)
	if err != nil {
		return err
	}
	updated := td.rows[rowIdx].Clone()
	updated[p] = cv
	old := td.rows[rowIdx]
	if td.def.Columns[p].NotNull && cv.IsNull() {
		return fmt.Errorf("engine: NOT NULL violation on %s.%s", table, column)
	}
	if td.pkIndex != nil {
		ok2, nk := old.key(td.pkCols), updated.key(td.pkCols)
		if ok2 != nk {
			if _, dup := td.pkIndex[nk]; dup {
				return fmt.Errorf("engine: primary key violation on %s", table)
			}
			delete(td.pkIndex, ok2)
			td.pkIndex[nk] = rowIdx
		}
	}
	td.rows[rowIdx] = updated
	return nil
}

// Tables returns the table names sorted, for deterministic iteration.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, td := range db.tables {
		out = append(out, td.def.Name)
	}
	sort.Strings(out)
	return out
}

// constEval evaluates an expression with no column references (INSERT
// values after binding).
func constEval(e sqlparser.Expr) (sqlvalue.Value, error) {
	ev := &evaluator{}
	return ev.eval(e, newScope(nil), nil)
}
