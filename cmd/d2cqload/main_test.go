package main

import "testing"

// A bare run must not write a report file: the committed BENCH_pr7.json
// baseline that scripts/load_smoke.sh gates against sits in the repository
// root, where a default file name would overwrite it.
func TestDefaultWritesNoFile(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.out != "" {
		t.Errorf("default -out = %q, want empty (stdout only)", c.out)
	}
}
