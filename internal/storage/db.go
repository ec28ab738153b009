package storage

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"d2cq/internal/cq"
)

// Table is one compiled relation: tuples interned and laid out flat, row i
// occupying Data[i*Arity:(i+1)*Arity]. Large relations use a tuple-hash
// partitioned layout instead (see partition.go): Data is nil and parts holds
// the rows, each partition itself flat, with row i living at global position
// partOff[p] + (local index) so Apply can rewrite only touched partitions.
// The tuple data is immutable either way after Compile/Apply; the lazily
// built per-column-set indexes and statistics are guarded by a mutex, so a
// Table is safe for concurrent use.
type Table struct {
	Name  string
	Arity int
	Data  []Value

	parts   [][]Value // tuple-hash partitions; nil for the flat layout
	partOff []int     // cumulative row offsets, len(parts)+1 entries

	mu      sync.Mutex
	indexes map[string]*Index
	stats   *TableStats
}

// Rows returns the number of tuples.
func (t *Table) Rows() int {
	if t.parts != nil {
		return t.partOff[len(t.parts)]
	}
	if t.Arity == 0 {
		return len(t.Data)
	}
	return len(t.Data) / t.Arity
}

// Row returns the i-th tuple as a slice view (do not mutate). Partitioned
// tables pay a binary search per call; full scans should use Scan.
func (t *Table) Row(i int) []Value {
	if t.parts != nil {
		p := sort.SearchInts(t.partOff, i+1) - 1
		j := i - t.partOff[p]
		return t.parts[p][j*t.Arity : (j+1)*t.Arity]
	}
	return t.Data[i*t.Arity : (i+1)*t.Arity]
}

// Scan calls f for every row in global row order — the allocation-free full
// scan that works across both layouts without Row's per-call partition
// search. The row slice is a view; do not mutate or retain it across calls.
func (t *Table) Scan(f func(row []Value)) {
	if t.parts == nil {
		n := t.Rows()
		for i := 0; i < n; i++ {
			f(t.Row(i))
		}
		return
	}
	a := t.Arity
	for _, part := range t.parts {
		for i := 0; i+a <= len(part); i += a {
			f(part[i : i+a])
		}
	}
}

// Partitions returns the number of tuple-hash partitions (0 for the flat
// layout) — layout introspection for stats and tests.
func (t *Table) Partitions() int { return len(t.parts) }

// segments returns the row storage as flat chunks in global row order: the
// single Data slice for flat tables, the partitions otherwise.
func (t *Table) segments() [][]Value {
	if t.parts != nil {
		return t.parts
	}
	return [][]Value{t.Data}
}

// dataLen returns the total number of stored values (rows × stride, where
// the stride is max(Arity, 1) — nullary tables store one sentinel per row).
func (t *Table) dataLen() int {
	if t.parts == nil {
		return len(t.Data)
	}
	n := 0
	for _, p := range t.parts {
		n += len(p)
	}
	return n
}

// colsKey renders a column set as a cache key.
func colsKey(cols []int) string {
	b := make([]byte, 0, 3*len(cols))
	for _, c := range cols {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	return string(b)
}

// maxCachedIndexes bounds the per-table index cache: a long-lived shared
// table serving ad-hoc traffic must not accumulate one O(rows) index per
// column set ever queried. Past the cap, indexes are built per call and not
// retained.
const maxCachedIndexes = 16

// Index returns the hash index of the table on the given column positions,
// building it on first use and caching up to maxCachedIndexes of them.
func (t *Table) Index(cols ...int) *Index {
	key := colsKey(cols)
	t.mu.Lock()
	if ix, ok := t.indexes[key]; ok {
		t.mu.Unlock()
		return ix
	}
	t.mu.Unlock()
	var ix *Index
	if t.parts != nil {
		ix = buildIndexParts(t.parts, t.partOff, t.Arity, cols)
	} else {
		ix = BuildIndex(t.Data, t.Arity, cols)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cached, ok := t.indexes[key]; ok {
		return cached // another goroutine built it meanwhile
	}
	if t.indexes == nil {
		t.indexes = map[string]*Index{}
	}
	if len(t.indexes) < maxCachedIndexes {
		t.indexes[key] = ix
	}
	return ix
}

// TableStats carries the basic statistics join ordering uses: cardinality
// and the number of distinct values per column.
type TableStats struct {
	Rows     int
	Distinct []int
}

// Stats returns the table statistics, computing and caching them on first
// use.
func (t *Table) Stats() TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats == nil {
		st := &TableStats{Rows: t.Rows(), Distinct: make([]int, t.Arity)}
		buf := make([]Value, 1)
		for c := 0; c < t.Arity; c++ {
			m := NewTupleMap(1, st.Rows)
			col := c
			t.Scan(func(row []Value) {
				buf[0] = row[col]
				m.Insert(buf)
			})
			st.Distinct[c] = m.Len()
		}
		t.stats = st
	}
	return *t.stats
}

// DB is a compiled database: every constant interned through one shared
// dictionary, every relation laid out as a flat Table. After Compile the
// tuple data and the dictionary are never mutated, so one DB serves any
// number of concurrent bound evaluations.
type DB struct {
	Dict   *Dict
	tables map[string]*Table

	// lineage records, per relation Apply actually changed, the row-level
	// delta from the parent snapshot (see TableDelta). Each step chains to
	// the previous snapshot's step (bounded; see chainLineage), so a
	// consumer holding an older ancestor can compose the walk with
	// LineageFrom instead of rescanning.
	lineage map[string]*TableDelta
}

// Compile interns an entire cq.Database once. It fails if a relation holds
// tuples of differing arities — a compiled table needs one flat layout, and
// such a relation could never validate against any query atom anyway.
func Compile(db cq.Database) (*DB, error) {
	out := &DB{Dict: NewDict(), tables: make(map[string]*Table, len(db))}
	// Deterministic interning order: sorted relation names.
	names := make([]string, 0, len(db))
	for name := range db {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tuples := db[name]
		if len(tuples) == 0 {
			continue
		}
		t := &Table{Name: name, Arity: len(tuples[0])}
		t.Data = make([]Value, 0, len(tuples)*t.Arity)
		// Bulk-intern under one lock per relation: the dictionary has not
		// escaped yet, so per-constant locking would buy nothing.
		err := out.Dict.locked(func(d *Dict) error {
			for _, tuple := range tuples {
				if len(tuple) != t.Arity {
					return fmt.Errorf("storage: relation %s mixes arities %d and %d", name, t.Arity, len(tuple))
				}
				for _, c := range tuple {
					t.Data = append(t.Data, d.internLocked(c))
				}
				if t.Arity == 0 {
					t.Data = append(t.Data, 0) // sentinel for the empty tuple
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out.tables[name] = t
	}
	return out, nil
}

// Table returns the compiled relation of the given name, or nil when the
// relation is absent (equivalently: empty).
func (db *DB) Table(name string) *Table { return db.tables[name] }

// Lineage returns the row-level delta of the named relation across the Apply
// that produced this snapshot, or nil when that Apply did not change the
// relation (or the snapshot came from Compile). The caller must check that
// TableDelta.Parent is the table it holds before patching from the lineage;
// for a consumer several Applies back, LineageFrom composes the chain.
func (db *DB) Lineage(name string) *TableDelta { return db.lineage[name] }

// Relations returns the compiled relation names, sorted.
func (db *DB) Relations() []string {
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RelationTuples returns the named relation's tuples decoded back to
// constant strings, in global row order; nil when the relation is absent.
func (db *DB) RelationTuples(name string) [][]string {
	t := db.tables[name]
	if t == nil {
		return nil
	}
	out := make([][]string, 0, t.Rows())
	t.Scan(func(row []Value) {
		tuple := make([]string, len(row))
		for i, v := range row {
			tuple[i] = db.Dict.Name(v)
		}
		out = append(out, tuple)
	})
	return out
}

// DBStats summarises a compiled database.
type DBStats struct {
	Relations int
	Tuples    int
	Constants int
}

// Stats returns the compiled database summary.
func (db *DB) Stats() DBStats {
	st := DBStats{Relations: len(db.tables), Constants: db.Dict.Len()}
	for _, t := range db.tables {
		st.Tuples += t.Rows()
	}
	return st
}
