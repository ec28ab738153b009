package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// CompiledDB is a database compiled once by Engine.CompileDB: constants
// interned through one dictionary, relations laid out flat with lazily built
// integer-keyed indexes. A CompiledDB is read-only after compilation and
// safe to share between any number of concurrent Binds and evaluations.
// Apply evolves it into a new snapshot without recompiling: the two
// snapshots share every untouched table and the (append-friendly)
// dictionary.
type CompiledDB struct {
	sdb *storage.DB
}

// CompileDB interns db once into a reusable compiled form. Pair it with
// PreparedQuery.Bind to also fix the data-dependent evaluation state:
// Prepare × CompileDB × Bind is the full compile-once / evaluate-many
// discipline for repeated traffic over a mostly-stable database.
func (e *Engine) CompileDB(ctx context.Context, db cq.Database) (*CompiledDB, error) {
	e.dbCompiles.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sdb, err := storage.Compile(db)
	if err != nil {
		return nil, err
	}
	return &CompiledDB{sdb: sdb}, nil
}

// Apply produces a new database snapshot with the delta applied —
// copy-on-write at relation granularity, so the cost is proportional to the
// touched relations plus the delta. Both snapshots stay live: the receiver
// is unchanged and existing BoundQuerys over it keep answering consistently.
// Pair with BoundQuery.Rebind (or use BoundQuery.Update, which does both) to
// carry bound evaluation state forward incrementally.
func (c *CompiledDB) Apply(ctx context.Context, delta *storage.Delta) (*CompiledDB, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sdb, err := c.sdb.Apply(delta)
	if err != nil {
		return nil, err
	}
	return &CompiledDB{sdb: sdb}, nil
}

// Stats summarises the compiled database (relations, tuples, interned
// constants).
func (c *CompiledDB) Stats() storage.DBStats { return c.sdb.Stats() }

// RelationArity returns the arity of the named relation, or ok=false when
// the relation is absent (equivalently: empty) in this snapshot. Ingestion
// layers use it to reject arity-mismatched tuples before they reach Apply.
func (c *CompiledDB) RelationArity(name string) (int, bool) {
	t := c.sdb.Table(name)
	if t == nil {
		return 0, false
	}
	return t.Arity, true
}

// BoundQuery is a prepared query bound to a compiled database: the interned
// dictionary, the per-atom relations, and the materialised decomposition
// node relations are all built once at Bind time and reused by every
// evaluation call. The full Yannakakis reduction (with its enumeration
// indexes) and the counting DP vectors are built lazily on the first
// Enumerate/Count and then shared. A BoundQuery is immutable after Bind and
// safe for concurrent use; Update/Rebind never mutate it — they return a new
// BoundQuery sharing all state the delta did not touch.
type BoundQuery struct {
	prep     *PreparedQuery
	cdb      *CompiledDB
	inst     *Instance
	nodeRels []*Relation // nil for naive and ground plans

	// nodeSupport carries, per node, the derivation count of every tuple of
	// the unfiltered bag projection — the auxiliary state that lets Update
	// maintain a node under a delta with a delta-join instead of re-running
	// the full λ join. Built lazily: empty until the first Rebind, and nil
	// per node until that node is first maintained, so bind-and-evaluate
	// workloads that never update pay nothing.
	nodeSupport []*storage.TupleMap

	reduceMu sync.Mutex // serialises enumSt construction
	enumSt   atomic.Pointer[enumState]
	countMu  sync.Mutex // serialises countSt construction
	countSt  atomic.Pointer[countState]
}

// Bind fixes the data-dependent half of the evaluation: it builds the
// per-atom relations over the compiled database and materialises the
// decomposition node relations (λ-edge joins ordered smallest-first,
// projected to the bags, filtered by the assigned atoms). The work Bool,
// Count and Enumerate previously repeated per call is paid once here.
func (p *PreparedQuery) Bind(ctx context.Context, cdb *CompiledDB) (*BoundQuery, error) {
	p.eng.binds.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	inst, err := BindCompile(p.plan.query, cdb.sdb)
	if err != nil {
		return nil, err
	}
	b := &BoundQuery{prep: p, cdb: cdb, inst: inst}
	if p.plan.Naive() || p.plan.d.Nodes() == 0 {
		return b, nil
	}
	r, err := newRun(ctx, p.plan, inst, p.eng.par())
	if err != nil {
		return nil, err
	}
	b.nodeRels = r.nodeRels
	return b, nil
}

// Query returns the bound query.
func (b *BoundQuery) Query() cq.Query { return b.prep.Query() }

// Database returns the compiled database snapshot the query is bound to.
func (b *BoundQuery) Database() *CompiledDB { return b.cdb }

// ExplainDB renders the plan together with the node relation sizes already
// materialised at Bind time — unlike PreparedQuery.ExplainDB it does no
// work beyond formatting.
func (b *BoundQuery) ExplainDB() string {
	plan := b.prep.plan
	if plan.Naive() || plan.d.Nodes() == 0 {
		return plan.Explain()
	}
	var sb strings.Builder
	sb.WriteString(plan.Explain())
	for u, rel := range b.nodeRels {
		fmt.Fprintf(&sb, "node %d materialised: |rel|=%d\n", u, rel.Len())
	}
	return sb.String()
}

// Vars returns the query's variables in enumeration output order (sorted).
func (b *BoundQuery) Vars() []string { return b.prep.Vars() }

// Dict returns the interned dictionary of the bound database lineage — the
// value space of the relations DiffFrom returns.
func (b *BoundQuery) Dict() *Dict { return b.inst.Dict }

// run clones the per-evaluation view of the bound node relations: the slice
// is copied so semijoin passes can reassign slots, while the relations
// themselves are shared read-only.
func (b *BoundQuery) run() *run {
	return &run{
		plan:     b.prep.plan,
		inst:     b.inst,
		nodeRels: append([]*Relation(nil), b.nodeRels...),
		par:      b.prep.eng.par(),
	}
}

// Bool decides q(D) ≠ ∅ over the bound database (Proposition 2.2). Only the
// bottom-up semijoin pass runs per call; interning, atom relations and node
// materialisation were paid at Bind time. When a full reduction is already
// cached (a prior Enumerate, or carried forward by Update), the answer is
// read off the reduced root relation without any pass at all.
func (b *BoundQuery) Bool(ctx context.Context) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if b.prep.plan.Naive() {
		return naiveBool(ctx, b.inst)
	}
	if b.prep.plan.d.Nodes() == 0 {
		return groundSat(b.inst), nil
	}
	if es := b.enumSt.Load(); es != nil {
		return es.nodes[b.prep.plan.d.Root()].rel.Len() > 0, nil
	}
	return b.run().bool_(ctx)
}

// Count computes |q(D)| for a full CQ over the bound database
// (Proposition 4.14). The per-node DP vectors are computed once and cached;
// repeated Counts read the cached total, and Update maintains the vectors
// incrementally on the affected subtrees only.
func (b *BoundQuery) Count(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if b.prep.plan.Naive() {
		return naiveCount(ctx, b.inst)
	}
	if b.prep.plan.d.Nodes() == 0 {
		if groundSat(b.inst) {
			return 1, nil
		}
		return 0, nil
	}
	cs, err := b.ensureCounts(ctx)
	if err != nil {
		return 0, err
	}
	return cs.total, nil
}

// ensureCounts runs the counting DP once over the bound node relations and
// caches the per-node vectors (so Update can maintain them incrementally).
// Concurrent callers wait for the single construction; a failed attempt
// (typically: a cancelled context) is not cached, so the next caller
// retries.
func (b *BoundQuery) ensureCounts(ctx context.Context) (*countState, error) {
	if cs := b.countSt.Load(); cs != nil {
		return cs, nil
	}
	b.countMu.Lock()
	defer b.countMu.Unlock()
	if cs := b.countSt.Load(); cs != nil {
		return cs, nil
	}
	cs, err := buildCountState(ctx, b.prep.plan, b.nodeRels, b.prep.eng.par())
	if err != nil {
		return nil, err
	}
	b.countSt.Store(cs)
	return cs, nil
}

// ensureReduced runs the Yannakakis full reduction once and builds the
// shared enumeration indexes over the reduced relations. The bottom-up
// intermediate relations are kept alongside so Update can re-run the
// semijoin passes only where a delta actually propagates. Concurrent callers
// wait for the single construction; a failed attempt (typically: a
// cancelled context) is not cached, so the next caller retries.
func (b *BoundQuery) ensureReduced(ctx context.Context) (*enumState, error) {
	if es := b.enumSt.Load(); es != nil {
		return es, nil
	}
	b.reduceMu.Lock()
	defer b.reduceMu.Unlock()
	if es := b.enumSt.Load(); es != nil {
		return es, nil
	}
	r := b.run()
	if err := r.reduceBottomUp(ctx); err != nil {
		return nil, err
	}
	bu := append([]*Relation(nil), r.nodeRels...)
	if err := r.reduceTopDown(ctx); err != nil {
		return nil, err
	}
	es := buildEnumState(b.prep.plan, r.nodeRels)
	es.buRels = bu
	b.enumSt.Store(es)
	return es, nil
}

// Enumerate streams every solution of the full CQ over the bound database.
// The first call pays for the full reduction and the per-node enumeration
// indexes; later calls — including concurrent ones — reuse them and stream
// with bounded delay. See PreparedQuery.Enumerate for the yield contract.
func (b *BoundQuery) Enumerate(ctx context.Context, yield func(Solution) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p := b.prep.plan
	sol := Solution{vars: p.qvars, dict: b.inst.Dict}
	if p.Naive() {
		return naiveEnumerate(ctx, b.inst, p.qvars, func(row []Value) bool {
			sol.row = row
			return yield(sol)
		})
	}
	if p.d.Nodes() == 0 {
		if groundSat(b.inst) {
			sol.row = nil
			yield(sol)
		}
		return nil
	}
	es, err := b.ensureReduced(ctx)
	if err != nil {
		return err
	}
	return es.enumerate(ctx, b.prep.eng.par(), b.prep.eng.ordered(), func(row []Value) bool {
		sol.row = row
		return yield(sol)
	})
}

// EnumerateAll materialises every solution as a sorted relation (a
// convenience over Enumerate for tests and small result sets).
func (b *BoundQuery) EnumerateAll(ctx context.Context) (*Relation, *Dict, error) {
	out := NewRelation(b.prep.plan.qvars...)
	err := b.Enumerate(ctx, func(s Solution) bool {
		if len(s.row) == 0 {
			out.AddEmpty()
		} else {
			// Add copies into the backing array immediately, so the reused
			// yield slice can be passed straight through.
			out.Add(s.row...)
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	out.sortPar(b.prep.eng.par())
	return out, b.inst.Dict, nil
}

// CountProjection counts the distinct projections of the solutions onto the
// free variables (§4.4) over the bound database.
func (b *BoundQuery) CountProjection(ctx context.Context, free []string) (int64, error) {
	return countProjection(b.prep.plan.qvars, free, func(yield func(Solution) bool) error {
		return b.Enumerate(ctx, yield)
	})
}

// materialise streams every solution into an (unsorted) relation over the
// query's variables — EnumerateAll without the display sort.
func (b *BoundQuery) materialise(ctx context.Context) (*Relation, error) {
	out := NewRelation(b.prep.plan.qvars...)
	err := b.Enumerate(ctx, func(s Solution) bool {
		if len(s.row) == 0 {
			out.AddEmpty()
		} else {
			out.Add(s.row...)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DiffFrom computes the tuple-level change of the query's result between a
// previous bound snapshot and this one: added holds the solutions present
// now but absent then, removed the converse, both sorted, over Vars()
// columns (in the shared dictionary's value space). The receiver and prev
// must be binds of the same PreparedQuery descending from one CompileDB
// lineage — interned values are not comparable across dictionaries, so
// anything else is an error. When the two snapshots share their cached
// evaluation state (the delta never reached the query, or was absorbed
// before the reduced relations) the diff is empty without enumerating
// anything. Otherwise the diff is enumerated straight from the per-node
// changes of the two cached enumeration states in O(per-node change +
// |result diff| × tree) — see diff.go — never materialising either result;
// only plans without cached enumeration state (naive plans, ground queries)
// fall back to materialising both sides and diffing them as sets. This is
// the hook a live view-maintenance layer turns into change notifications.
func (b *BoundQuery) DiffFrom(ctx context.Context, prev *BoundQuery) (added, removed *Relation, err error) {
	if prev == nil {
		return nil, nil, fmt.Errorf("engine: DiffFrom against a nil snapshot")
	}
	if b.prep != prev.prep {
		return nil, nil, fmt.Errorf("engine: DiffFrom across different prepared queries")
	}
	if b.inst.Dict != prev.inst.Dict {
		return nil, nil, fmt.Errorf("engine: DiffFrom across unrelated database lineages")
	}
	empty := func() (*Relation, *Relation, error) {
		qvars := b.prep.plan.qvars
		return NewRelation(qvars...), NewRelation(qvars...), nil
	}
	if b == prev || b.inst == prev.inst {
		return empty() // shared instance: the delta was invisible to the query
	}
	if bes, pes := b.enumSt.Load(), prev.enumSt.Load(); bes != nil && pes != nil {
		if bes == pes {
			return empty()
		}
		same := true
		for u := range bes.nodes {
			if bes.nodes[u].rel != pes.nodes[u].rel {
				same = false
				break
			}
		}
		if same {
			return empty() // every reduced relation absorbed: identical results
		}
	}
	if p := b.prep.plan; !p.Naive() && p.d.Nodes() > 0 && len(p.qvars) > 0 {
		bes, err := b.ensureReduced(ctx)
		if err != nil {
			return nil, nil, err
		}
		pes, err := prev.ensureReduced(ctx)
		if err != nil {
			return nil, nil, err
		}
		b.prep.eng.diffsFast.Add(1)
		return b.diffIncremental(ctx, pes, bes)
	}
	b.prep.eng.diffsOracle.Add(1)
	return b.diffOracle(ctx, prev)
}
