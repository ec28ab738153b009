package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"d2cq/internal/cq"
	"d2cq/internal/decomp"
	"d2cq/internal/dilution"
	"d2cq/internal/graph"
	"d2cq/internal/hypergraph"
)

// registration is one REGISTER of the register-corpus workload: the
// canonical CQ of a degree-2 shape under fresh relation and variable names,
// with the small database its relations are preloaded with.
type registration struct {
	name   string
	src    string
	q      cq.Query
	db     cq.Database
	kind   string // "fresh", "repeat" (renamed copy: same cache key) or "permuted" (isomorphic, new key)
	family string
	origin int // the registration a repeat or permuted copy was made from (-1: fresh)
	key    string
	want   int64 // reference count over db
}

// layout fixes how a shape becomes a query: vertex j of the shape is
// variable vp[j], and atom k is edge ap[k]. Two registrations with the same
// shape and layout have the same decomposition-cache key whatever their
// names, because variables are named so that they sort in vp order.
type layout struct {
	h      *hypergraph.Hypergraph
	family string
	vp, ap []int
}

func randomLayout(r *rand.Rand, family string, h *hypergraph.Hypergraph) layout {
	return layout{h: h, family: family, vp: r.Perm(h.NV()), ap: r.Perm(h.NE())}
}

// corpusBlock is the fixed composition of every block of 20 registrations:
// 10 fresh shapes, 8 renamed repeats of a recent registration
// (decomposition-cache hits) and 2 atom-permuted isomorphic copies of an
// earlier one (misses). Every seed registers the same mix of families and
// sizes; the seed picks the instances, their layouts, the order and the
// data. Twelve of every twenty registrations are new cache keys, so a run's
// distinct shapes outnumber the engine's 256-entry cache many times over.
const (
	blockSize     = 20
	repeatsBlock  = 8
	permutedBlock = 2
	repeatWindow  = 24 // repeats copy one of the last this many registrations
)

// freshShape builds fresh shape j (0..9) of block b. Only the big-jigsaw
// slot is expensive to decompose, and it holds one in two blocks of five: a
// 4×4 jigsaw, or a 4×5 in one block of twenty. The widest shapes thus make
// up about 2% of registrations, so p99 falls near the middle of the 4×4
// cluster, where its rank is least sensitive to which searches happened to
// overlap, rather than at the cluster's edge or on the handful of 4×5
// searches.
func freshShape(r *rand.Rand, b, j int) (string, *hypergraph.Hypergraph) {
	dual := func(g *graph.Graph) *hypergraph.Hypergraph { return hypergraph.FromGraph(g).Dual() }
	jigsaw := func() (string, *hypergraph.Hypergraph) {
		d := [][2]int{{3, 3}, {2, 5}, {3, 4}, {3, 5}}[(2*b+j)%4]
		return "jigsaw", dilution.Jigsaw(d[0], d[1])
	}
	switch j {
	case 0:
		return "cycle", dual(graph.Cycle(5 + r.Intn(12)))
	case 1, 2, 3:
		k := 1 + r.Intn(3)
		return "partial-ktree-dual", dual(partialKTree(r, k+3+r.Intn(5), k))
	case 4:
		return "partial-ktree-dual", dual(partialKTree(r, 7+r.Intn(3), 4))
	case 5:
		return "complete-dual", dual(graph.Complete(5 + r.Intn(3)))
	case 6, 7:
		return jigsaw()
	case 8:
		d := [][2]int{{3, 3}, {3, 4}}[b%2]
		return "subdivided-grid-dual", dual(graph.Subdivide(graph.Grid(d[0], d[1])))
	default:
		switch {
		case b%20 == 7:
			return "big-jigsaw", dilution.Jigsaw(4, 5)
		case b%5 == 0 || b%5 == 2:
			return "big-jigsaw", dilution.Jigsaw(4, 4)
		}
		return jigsaw()
	}
}

// partialKTree returns a random connected graph of treewidth at most k on n
// vertices: a random k-tree with a random share of its non-tree edges
// removed.
func partialKTree(r *rand.Rand, n, k int) *graph.Graph {
	type edge struct{ u, v int }
	var edges []edge
	cliques := [][]int{}
	first := make([]int, k+1)
	for i := range first {
		first[i] = i
		for j := 0; j < i; j++ {
			edges = append(edges, edge{j, i})
		}
	}
	cliques = append(cliques, first)
	for v := k + 1; v < n; v++ {
		c := cliques[r.Intn(len(cliques))]
		drop := r.Intn(len(c))
		next := []int{v}
		for i, u := range c {
			if i != drop {
				edges = append(edges, edge{u, v})
				next = append(next, u)
			}
		}
		cliques = append(cliques, next)
	}
	g := graph.New(n)
	// Keep each vertex's first edge so the graph stays connected.
	kept := make([]bool, n)
	for _, e := range edges {
		if !kept[e.v] || r.Intn(3) > 0 {
			g.AddEdge(e.u, e.v)
			kept[e.v] = true
		}
	}
	return g
}

// query renders a layout as a CQ: relations tag_rK, variables tag_vJ.
func (l layout) query(tag string) cq.Query {
	var q cq.Query
	for k, e := range l.ap {
		vs := l.h.EdgeVertices(e)
		idx := make([]int, len(vs))
		for i, v := range vs {
			idx[i] = l.vp[v]
		}
		sort.Ints(idx)
		args := make([]cq.Term, len(idx))
		for i, x := range idx {
			args[i] = cq.V(fmt.Sprintf("%sv%03d", tag, x))
		}
		q.Atoms = append(q.Atoms, cq.Atom{Rel: fmt.Sprintf("%sr%03d", tag, k), Args: args})
	}
	return q
}

// querySource renders q in the syntax cq.ParseQuery reads.
func querySource(q cq.Query) string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		args := make([]string, len(a.Args))
		for j, t := range a.Args {
			args[j] = t.Name
		}
		parts[i] = a.Rel + "(" + strings.Join(args, ",") + ")"
	}
	return strings.Join(parts, ", ")
}

// corpusDB fills every relation of q with its small canonical database: the
// three constant tuples (c,...,c) plus two random tuples over the same
// three values, so each count is positive and depends on the seed.
func corpusDB(r *rand.Rand, q cq.Query) cq.Database {
	db := cq.Database{}
	vals := []string{"0", "1", "2"}
	for _, a := range q.Atoms {
		var ts [][]string
		for _, c := range vals {
			t := make([]string, len(a.Args))
			for i := range t {
				t[i] = c
			}
			ts = append(ts, t)
		}
		for n := 0; n < 2; n++ {
			t := make([]string, len(a.Args))
			for i := range t {
				t[i] = vals[r.Intn(len(vals))]
			}
			ts = append(ts, t)
		}
		db[a.Rel] = dedupTuples(ts)
	}
	return db
}

func dedupTuples(ts [][]string) [][]string {
	seen := map[string]bool{}
	out := ts[:0]
	for _, t := range ts {
		k := strings.Join(t, "\x00")
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// refCount is the reference evaluation REGISTER counts are checked against:
// plain backtracking over q's atoms in connected order, sharing no code with
// the engine's decompositions, plans or naive evaluator.
func refCount(q cq.Query, db cq.Database) int64 {
	atoms := connectedOrder(q).Atoms
	assign := map[string]string{}
	var n int64
	var rec func(i int)
	rec = func(i int) {
		if i == len(atoms) {
			n++
			return
		}
		a := atoms[i]
		for _, t := range db[a.Rel] {
			var touched []string
			ok := true
			for c, arg := range a.Args {
				if v, bound := assign[arg.Name]; bound {
					if v != t[c] {
						ok = false
						break
					}
					continue
				}
				assign[arg.Name] = t[c]
				touched = append(touched, arg.Name)
			}
			if ok {
				rec(i + 1)
			}
			for _, v := range touched {
				delete(assign, v)
			}
		}
	}
	rec(0)
	return n
}

// connectedOrder reorders q's atoms greedily so that each next atom shares
// the most variables with those before it, which keeps backtracking from
// enumerating unconstrained combinations.
func connectedOrder(q cq.Query) cq.Query {
	bound := map[string]bool{}
	left := append([]cq.Atom(nil), q.Atoms...)
	var out cq.Query
	for len(left) > 0 {
		best, bestShared := 0, -1
		for i, a := range left {
			shared := 0
			for _, t := range a.Args {
				if bound[t.Name] {
					shared++
				}
			}
			if shared > bestShared {
				best, bestShared = i, shared
			}
		}
		a := left[best]
		left = append(left[:best], left[best+1:]...)
		for _, t := range a.Args {
			bound[t.Name] = true
		}
		out.Atoms = append(out.Atoms, a)
	}
	return out
}

// genCorpus builds n registrations from the seed, with their reference
// reference counts.
func genCorpus(seed int64, n int) ([]registration, error) {
	r := rand.New(rand.NewSource(seed))
	var regs []registration
	layouts := make([]layout, 0, n)
	for b := 0; len(regs) < n; b++ {
		kinds := make([]string, 0, blockSize)
		for j := 0; j < blockSize-repeatsBlock-permutedBlock; j++ {
			kinds = append(kinds, fmt.Sprintf("fresh:%d", j))
		}
		for j := 0; j < repeatsBlock; j++ {
			kinds = append(kinds, "repeat")
		}
		for j := 0; j < permutedBlock; j++ {
			kinds = append(kinds, "permuted")
		}
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, kind := range kinds {
			if len(regs) == n {
				break
			}
			i := len(regs)
			var l layout
			origin := -1
			switch {
			case kind == "repeat" && i > 0:
				origin = i - 1 - r.Intn(min(i, repeatWindow))
				l = layouts[origin]
			case kind == "permuted" && i > 0:
				origin = r.Intn(i)
				l = randomLayout(r, layouts[origin].family, layouts[origin].h)
			default:
				var j int
				fmt.Sscanf(kind, "fresh:%d", &j)
				kind = "fresh"
				family, h := freshShape(r, b, j)
				l = randomLayout(r, family, h)
			}
			tag := fmt.Sprintf("g%05d", i)
			q := l.query(tag)
			db := corpusDB(r, q)
			want := refCount(q, db)
			layouts = append(layouts, l)
			regs = append(regs, registration{
				name: tag, src: querySource(q), q: q, db: db, kind: kind, family: l.family,
				origin: origin, key: decomp.CacheKey(q.Hypergraph()), want: want,
			})
		}
	}
	return regs, nil
}
