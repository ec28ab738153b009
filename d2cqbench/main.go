// Command d2cqbench is the repository's benchmark: an open-loop load
// generator that builds nothing itself but drives a d2cqd binary the way an
// operator runs it (durable, fsync per flush, fresh data directory, free
// ports) through one of three workloads, checks every output, and prints
// each metric with its unit and sample count. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	d2cqbench -d2cqd <binary> -workload register-corpus|fanout-wire|mixed-http
//	          -seed N -seconds S -trace 0|1 [-work dir] [-commit id]
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// workload runs twice with the same seed, untraced and then traced (client
// spans plus /stats snapshots), the traced run's inputs are replayed
// in-process through each layer's public functions, and the metrics are the
// per-layer ones, including the tracing overhead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	d2cqd    string
	work     string
	commit   string
}

var workloads = map[string]func(*bench, context.Context, *tracer) (*passResult, error){
	"register-corpus": (*bench).registerCorpus,
	"fanout-wire":     (*bench).fanoutWire,
	"mixed-http":      (*bench).mixedHTTP,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "d2cqbench:", err)
	}
	os.Exit(code)
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("d2cqbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "register-corpus, fanout-wire or mixed-http")
	fs.Int64Var(&c.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&c.seconds, "seconds", 20, "length of the measured open loop")
	fs.IntVar(&c.trace, "trace", 0, "1: report per-layer metrics from a traced run and an in-process replay")
	fs.StringVar(&c.d2cqd, "d2cqd", ".bench_build/d2cqd", "d2cqd binary to launch")
	fs.StringVar(&c.work, "work", ".bench_build/run", "scratch directory for data directories and spans")
	fs.StringVar(&c.commit, "commit", "unknown", "commit the binaries were built from, for the provenance block")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if _, ok := workloads[c.workload]; !ok {
		return c, fmt.Errorf("-workload must be one of register-corpus, fanout-wire, mixed-http (got %q)", c.workload)
	}
	if c.seconds < 1 || c.trace < 0 || c.trace > 1 {
		return c, fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if _, err := os.Stat(c.d2cqd); err != nil {
		return c, fmt.Errorf("d2cqd binary: %w", err)
	}
	return c, nil
}

// bench is one invocation: its configuration and scratch space.
type bench struct {
	cfg   config
	nproc int
	dir   string
	dirs  int
}

// dataDir returns a fresh data directory for one daemon life.
func (b *bench) dataDir() string {
	b.dirs++
	return filepath.Join(b.dir, fmt.Sprintf("data-%d", b.dirs))
}

// setupReps is how many times each pass sets the daemon up; setup_s is
// their median, and the last set-up is the one the loop runs against.
var setupReps = 9

// passResult is everything one pass of a workload measured.
type passResult struct {
	setup     []time.Duration
	reply     population // scheduled send → the requester's reply
	delivered population // scheduled send of a write → every client waiting on it has the result
	breakdown []namedPop // register / ack / read / notify populations
	lag       population // generator lateness against the schedule
	attempted int
	failed    int
	problems  []string // failed correctness checks
	restart   time.Duration
	peakRSS   float64   // VmHWM of the daemon that served the loop
	rss       []float64 // its VmRSS, sampled over the loop
	cpu       time.Duration
	flags     []string

	// Traced passes only.
	before, after statsDoc
	replayRecs    uint64
	walReplay     time.Duration
	walReplayRecs int
	rec           *recording
}

type namedPop struct {
	name string
	pop  *population
}

func (r *passResult) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *passResult) pop(name string) *population {
	for _, p := range r.breakdown {
		if p.name == name {
			return p.pop
		}
	}
	p := &population{}
	r.breakdown = append(r.breakdown, namedPop{name, p})
	return p
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rssInterval is how often the daemon's resident set is sampled during the
// loop.
const rssInterval = 100 * time.Millisecond

// endToEnd turns a pass into the end-to-end metrics.
func endToEnd(r *passResult) map[string]metric {
	reply, del := r.reply.summary(), r.delivered.summary()
	return map[string]metric{
		"setup_s":          {median(r.setup).Seconds(), "s"},
		"reply_p50_ms":     {reply.P50, "ms"},
		"reply_p99_ms":     {reply.P99, "ms"},
		"delivered_p50_ms": {del.P50, "ms"},
		"delivered_p99_ms": {del.P99, "ms"},
		"restart_s":        {r.restart.Seconds(), "s"},
		"rss_mb":           {medianF(r.rss), "MB"},
	}
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func run(args []string, out io.Writer) (int, error) {
	cfg, err := parseFlags(args)
	if err != nil {
		return 2, err
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	// The generator shares the CPUs with the daemon it measures and
	// allocates for every delivery it decodes. Collecting less often cut its
	// CPU time by about a sixth on fanout-wire and with it the noise it adds
	// to the daemon's tails, for about 50 MB more peak memory.
	debug.SetGCPercent(400)
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, nproc: nproc, dir: dir}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	fn := workloads[cfg.workload]

	pass, err := fn(b, ctx, nil)
	if err != nil {
		return 1, err
	}
	printProvenance(out, b, pass.flags)
	printPass(out, "untraced", pass)
	res := result{Attempted: pass.attempted, Failed: pass.failed, Metrics: endToEnd(pass)}
	problems := pass.problems
	if cfg.trace == 1 {
		tr := newTracer()
		traced, err := fn(b, ctx, tr)
		if err != nil {
			return 1, err
		}
		printPass(out, "traced", traced)
		layers, spans, err := b.replay(ctx, traced, tr)
		if err != nil {
			return 1, err
		}
		problems = append(problems, traced.problems...)
		untracedE2E, tracedE2E := endToEnd(pass), endToEnd(traced)
		for name, m := range untracedE2E {
			layers["trace.overhead."+name] = metric{tracedE2E[name].Value - m.Value, m.Unit}
		}
		layers["loadgen.lag_p99_ms"] = metric{traced.lag.summary().P99, "ms"}
		layers["loadgen.cpu_s"] = metric{traced.cpu.Seconds(), "s"}
		spanFile := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(spanFile, spans); err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), spanFile)
		if cfg.workload == "register-corpus" {
			fmt.Fprintf(out, "traced: register tail by family/width/cache: %s\n", tailMix(traced.rec))
		}
		res = result{Attempted: pass.attempted + traced.attempted, Failed: pass.failed + traced.failed, Metrics: layers}
	}
	res.Correct = len(problems) == 0
	printMetrics(out, res.Metrics)
	for _, p := range problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d correctness checks failed", len(problems))
	}
	return 0, nil
}

func printProvenance(out io.Writer, b *bench, flags []string) {
	host, _ := os.Hostname()
	prov := map[string]any{
		"workload":             b.cfg.workload,
		"seed":                 b.cfg.seed,
		"seconds":              b.cfg.seconds,
		"trace":                b.cfg.trace,
		"cpus":                 b.nproc,
		"loadgen_gomaxprocs":   runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs":    b.nproc,
		"go_version":           runtime.Version(),
		"goos_goarch":          runtime.GOOS + "/" + runtime.GOARCH,
		"commit":               b.cfg.commit,
		"daemon_flags":         strings.Join(flags, " "),
		"host":                 host,
		"loadgen_connections":  min(connections[b.cfg.workload], b.nproc),
		"connections_allowed":  b.nproc,
		"setup_repeats_median": setupReps,
	}
	line, _ := json.Marshal(prov)
	fmt.Fprintf(out, "provenance: %s\n", line)
}

// connections is how many connections each workload's generator holds open
// at once; it must not exceed nproc.
var connections = map[string]int{"register-corpus": 1, "fanout-wire": 2, "mixed-http": 2}

func printPass(out io.Writer, label string, r *passResult) {
	fmt.Fprintf(out, "%s: attempted=%d failed=%d error_frac=%.6f (base %d) setup_s=%v restart_s=%.3f rss_mb=%.1f (median of %d samples) peak_rss_mb=%.1f loadgen_cpu_s=%.2f\n",
		label, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)), r.attempted,
		fmtDurations(r.setup), r.restart.Seconds(), medianF(r.rss), len(r.rss), r.peakRSS, r.cpu.Seconds())
	for _, p := range append([]namedPop{{"reply", &r.reply}, {"delivered", &r.delivered}}, r.breakdown...) {
		fmt.Fprintf(out, "%s:   %-9s %s\n", label, p.name, p.pop.summary())
	}
	fmt.Fprintf(out, "%s:   %-9s %s\n", label, "lag", r.lag.summary())
}

func fmtDurations(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.3f", d.Seconds())
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-40s %14.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
