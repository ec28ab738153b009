package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmallCorpus(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "census.csv")
	var out strings.Builder
	if err := run([]string{"-per", "3", "-maxk", "3", "-csv", csvPath}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "ghw > k") || !strings.Contains(s, "corpus composition") {
		t.Errorf("output:\n%s", s)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "name,family,") {
		t.Errorf("csv header wrong: %q", string(data)[:40])
	}
}

func TestRunBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-per", "NaN"}, &out); err == nil {
		t.Error("bad flag should error")
	}
}

func TestRunJSONReport(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-per", "2", "-maxk", "3", "-evalwidth", "3", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Entries == 0 || len(rep.Table1) != 3 || rep.GenMS <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
	if rep.Eval == nil || rep.Eval.Sat+rep.Eval.Unsat != rep.Entries {
		t.Errorf("eval report incomplete: %+v", rep.Eval)
	}
	if rep.Eval != nil && (rep.Eval.Binds == 0 || rep.Eval.DBCompiles == 0) {
		t.Errorf("bind counters missing: %+v", rep.Eval)
	}
	// The human tables must not leak into machine output.
	if strings.Contains(out.String(), "===") {
		t.Error("human tables in -json output")
	}
}

func TestRunEvalCorpus(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-per", "2", "-maxk", "3", "-evalwidth", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "canonical BCQ evaluation") || !strings.Contains(s, "engine: prepares=") {
		t.Errorf("missing evaluation report:\n%s", s)
	}
}
