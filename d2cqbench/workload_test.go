package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/hypergraph"
)

func TestCorpusComposition(t *testing.T) {
	regs, err := genCorpus(7, 2*blockSize)
	if err != nil {
		t.Fatal(err)
	}
	again, err := genCorpus(7, 2*blockSize)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for i, r := range regs {
		if r.src != again[i].src || r.want != again[i].want {
			t.Fatalf("registration %d differs between two runs of one seed", i)
		}
		kinds[r.kind]++
		if r.q.Degree() > 2 {
			t.Errorf("%s has degree %d", r.name, r.q.Degree())
		}
		if r.origin < 0 {
			continue
		}
		o := regs[r.origin]
		same := r.key == o.key
		switch r.kind {
		case "repeat":
			if !same || r.src == o.src {
				t.Errorf("repeat %s of %s: same key %v, same text %v; want a renamed copy with the same key", r.name, o.name, same, r.src == o.src)
			}
		case "permuted":
			if _, iso := hypergraph.Isomorphic(r.q.Hypergraph(), o.q.Hypergraph()); !iso {
				t.Errorf("permuted copy %s is not isomorphic to %s", r.name, o.name)
			}
		}
	}
	// The first registration of a block cannot be a copy, so it may turn a
	// copy slot into a fresh shape.
	if kinds["repeat"] < 2*repeatsBlock-1 || kinds["permuted"] < 2*permutedBlock-1 || kinds["fresh"] < 2*(blockSize-repeatsBlock-permutedBlock) {
		t.Errorf("kinds = %v", kinds)
	}
}

// The reference count is independent of the engine; check both agree on
// every registration of a block.
func TestRefCountMatchesEngine(t *testing.T) {
	regs, err := genCorpus(3, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewEngine()
	for _, r := range regs {
		p, err := eng.Prepare(context.Background(), r.q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Count(context.Background(), r.db)
		if err != nil {
			t.Fatal(err)
		}
		if got != r.want {
			t.Errorf("%s (%s): engine %d, reference %d", r.name, r.family, got, r.want)
		}
		parsed, err := cq.ParseQuery(r.src)
		if err != nil || parsed.String() != r.q.String() {
			t.Errorf("%s: source %q does not parse back (%v)", r.name, r.src, err)
		}
	}
}

func TestRowChecks(t *testing.T) {
	x, y, z := submitRow(42)
	if markerOf([]string{x, y, z}) != 42 || markerOf([]string{x, y, "c41"}) != -1 || markerOf([]string{"x1", "y1", "z1"}) != -1 {
		t.Error("markerOf does not invert submitRow")
	}
	preload := cq.Database{"Fa1": {{"p", "q"}}}
	subQuery := []int{0, 1}
	if bad := checkFanoutRows([][]string{{"p", "q", "r"}, {"a1", "b1", "c1"}}, 1, preload, subQuery); bad != "" {
		t.Errorf("valid rows rejected: %s", bad)
	}
	if bad := checkFanoutRows([][]string{{"a0", "b0", "c0"}}, 1, preload, subQuery); bad == "" {
		t.Error("a row of another query's submit was accepted")
	}
	left, right := map[string]string{"x1": "y1"}, map[string]string{"z1": "y1", "z2": "y2"}
	page := make([][]string, mixedPage)
	for i := range page {
		page[i] = []string{"x1", "y1", "z1"}
	}
	if bad := checkMixedRows(page, left, right, 1); bad != "" {
		t.Errorf("valid page rejected: %s", bad)
	}
	page[3] = []string{"x1", "y1", "z2"}
	if checkMixedRows(page, left, right, 1) == "" {
		t.Error("a row that is not a join result was accepted")
	}
	if checkMixedRows(page[:5], left, right, 1) == "" {
		t.Error("a short page was accepted")
	}
}

// benchmarkSpec is BENCHMARK.json's metric lists.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(list []struct{ Name string }) map[string]bool {
	out := map[string]bool{}
	for _, x := range list {
		out[x.Name] = true
	}
	return out
}

func sameNames(t *testing.T, what string, got map[string]metric, want map[string]bool) {
	t.Helper()
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: BENCHMARK.json names %s, the run did not report it", what, n)
		}
	}
	for n := range got {
		if !want[n] {
			t.Errorf("%s: the run reported %s, BENCHMARK.json does not name it", what, n)
		}
	}
}

func TestSpecMatchesEndToEnd(t *testing.T) {
	spec := loadSpec(t)
	sameNames(t, "end_to_end", endToEnd(&passResult{}), names(spec.EndToEnd))
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not have", w.Name)
		}
	}
}

// TestSmoke runs every workload for one second, traced, against a d2cqd
// built from this checkout on free ports, and checks the result line. Under
// -short each pass sets up once instead of taking a median.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		defer func(n int) { setupReps = n }(setupReps)
		setupReps = 1
	}
	bin := filepath.Join(t.TempDir(), "d2cqd")
	build := exec.Command("go", "build", "-o", bin, "d2cq/cmd/d2cqd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building d2cqd: %v\n%s", err, out)
	}
	spec := loadSpec(t)
	for _, w := range []string{"register-corpus", "fanout-wire", "mixed-http"} {
		t.Run(w, func(t *testing.T) {
			var out bytes.Buffer
			code, err := run([]string{"-workload", w, "-seed", "3", "-seconds", "1", "-trace", "1",
				"-d2cqd", bin, "-work", t.TempDir()}, &out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if code != 0 || err != nil {
				t.Fatalf("exit %d: %v\n%s", code, err, out.String())
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("result = correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, "per_layer", res.Metrics, names(spec.PerLayer))
			if !strings.Contains(out.String(), `"seed":3`) {
				t.Error("the provenance block does not record the seed")
			}
		})
	}
}

func TestMissingDaemonFails(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-workload", "fanout-wire", "-d2cqd", filepath.Join(t.TempDir(), "absent")}, &out)
	if code == 0 || err == nil || out.Len() != 0 {
		t.Errorf("exit %d, err %v, output %q; want a failure and no result", code, err, out.String())
	}
}
