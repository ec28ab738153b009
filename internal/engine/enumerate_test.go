package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"d2cq/internal/cq"
	"d2cq/internal/decomp"
)

func TestEnumerateAllMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	eng := NewEngine()
	for trial := 0; trial < 40; trial++ {
		query, db := randomInstance(r)
		naiveRel, naiveDict, err := NaiveEnumerate(query, db)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := eng.Prepare(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		ghdRel, ghdDict, err := prep.EnumerateAll(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualRelations(naiveRel, naiveDict, ghdRel, ghdDict) {
			t.Fatalf("trial %d: enumeration differs (%d vs %d rows)\nq=%s\ndb=%v",
				trial, naiveRel.Len(), ghdRel.Len(), query, db)
		}
	}
}

func TestFullReduceRemovesDanglingTuples(t *testing.T) {
	// R(x,y) ⋈ S(y,z): tuples of R with no S partner (and vice versa) must
	// vanish after the full reduction.
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("R", "9", "9") // dangling
	db.Add("S", "2", "3")
	db.Add("S", "8", "8") // dangling
	query, err := cq.ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Compile(query, db)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decomp.EvalDecomposition(query.Hypergraph())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(query, d)
	if err != nil {
		t.Fatal(err)
	}
	run, err := newRun(context.Background(), p, inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.fullReduce(context.Background()); err != nil {
		t.Fatal(err)
	}
	for u, rel := range run.nodeRels {
		if rel.Len() != 1 {
			t.Errorf("node %d has %d tuples after full reduction, want 1", u, rel.Len())
		}
	}
}

func TestEnumerateGroundQuery(t *testing.T) {
	db := cq.Database{}
	db.Add("Fact", "a")
	query, err := cq.ParseQuery("Fact('a')")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	prep, err := eng.Prepare(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := prep.EnumerateAll(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Arity() != 0 {
		t.Errorf("ground query solutions = %d (arity %d), want the empty tuple", rel.Len(), rel.Arity())
	}
	// Absent fact: no solutions.
	query2, _ := cq.ParseQuery("Fact('b')")
	prep2, err := eng.Prepare(context.Background(), query2)
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err = prep2.EnumerateAll(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Errorf("unsatisfied ground query has %d solutions", rel.Len())
	}
}

func TestEqualRelationsDetectsDifferences(t *testing.T) {
	da, dbq := NewDict(), NewDict()
	a := NewRelation("x")
	a.Add(da.Intern("v1"))
	b := NewRelation("x")
	b.Add(dbq.Intern("v1"))
	if !EqualRelations(a, da, b, dbq) {
		t.Error("identical single-tuple relations reported different")
	}
	b.Add(dbq.Intern("v2"))
	b.Dedup()
	if EqualRelations(a, da, b, dbq) {
		t.Error("different sizes reported equal")
	}
	c := NewRelation("x")
	c.Add(dbq.Intern("v2"))
	if EqualRelations(a, da, c, dbq) {
		t.Error("different contents reported equal")
	}
}

func TestEnumerateStarQuery(t *testing.T) {
	// Star query: center variable shared across k atoms.
	q := cq.Query{}
	db := cq.Database{}
	for i := 0; i < 4; i++ {
		rel := fmt.Sprintf("L%d", i)
		q.Atoms = append(q.Atoms, cq.Atom{Rel: rel, Args: []cq.Term{cq.V("c"), cq.V(fmt.Sprintf("l%d", i))}})
		db.Add(rel, "hub", fmt.Sprintf("leaf%d", i))
		db.Add(rel, "hub", "shared")
		db.Add(rel, "other", "x")
	}
	naiveRel, nd, err := NaiveEnumerate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := NewEngine().Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ghdRel, gd, err := prep.EnumerateAll(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualRelations(naiveRel, nd, ghdRel, gd) {
		t.Fatalf("star query enumeration differs: %d vs %d", naiveRel.Len(), ghdRel.Len())
	}
	// hub contributes 2^4 = 16 combos; "other" fails on intersect? No:
	// c = other works too (each relation has (other, x)) → +1.
	if naiveRel.Len() != 17 {
		t.Errorf("star query solutions = %d, want 17", naiveRel.Len())
	}
}
