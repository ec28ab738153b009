// Command d2cqload is an open-loop load harness for a running d2cqd: it
// registers N two-atom queries, attaches SSE watchers with Zipf-distributed
// popularity, and drives a fixed-rate submit stream where every submit
// produces exactly one new solution of one query. Because the loop is open —
// each request's latency is measured from its *scheduled* send time, and a
// slow server never delays the schedule — the reported percentiles are free
// of coordinated omission: a stall shows up as a latency spike across every
// request scheduled during it, exactly as real clients would experience it.
//
// Two latencies are recorded per submit: ack (POST /update round-trip) and
// end-to-end (scheduled send → the watcher's SSE change event carrying the
// new solution, which includes the store's coalescing window). The run ends
// with a JSON report — p50/p99/p999 for both, plus the server's flush-phase
// timings from /stats — suitable for committing as a benchmark baseline.
//
// Usage:
//
//	d2cqload [-addr 127.0.0.1:8344] [-proto http|wire] [-token T]
//	         [-queries 8] [-watchers 16] [-zipf 1.3]
//	         [-hot-query] [-rate 200] [-duration 10s] [-grace 2s]
//	         [-out report.json]
//
// -hot-query pins every watcher to q0 instead of spreading them by Zipf: the
// mass-fan-out shape (one hot query, many subscribers) that exercises the
// store's shared broadcast ring. Submits keep their Zipf distribution, under
// which q0 is already the hottest query.
//
// -proto wire drives the same schedule over the binary wire protocol
// (internal/wire) instead of HTTP/JSON + SSE: submits become SUBMIT frames
// and watchers become credit-gated WATCH streams — one report shape either
// way, so the two transports compare directly.
// -token authenticates both protocols. The summary lines always go to
// stdout; -out also writes the JSON report to that file.
//
// The probe mode (-probe-watch query [-probe-from N] [-probe-count K]) skips
// the load loop entirely: it opens one wire watch stream, prints the
// snapshot line and K change lines, and exits — the seam restart_smoke.sh
// uses to assert cursor resume over the wire protocol after a kill -9.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

type config struct {
	addr     string
	proto    string
	token    string
	queries  int
	watchers int
	hotQuery bool
	zipfS    float64
	rate     float64
	duration time.Duration
	grace    time.Duration
	out      string
	seed     int64

	probeWatch   string
	probeFrom    int64
	probeCount   int
	probeTimeout time.Duration
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "d2cqload:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("d2cqload", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8344", "d2cqd address (host:port; with -proto wire, the -listen-wire address)")
	fs.StringVar(&c.proto, "proto", "http", "transport: http (JSON + SSE) or wire (binary protocol)")
	fs.StringVar(&c.token, "token", "", "bearer token for -auth-token'd daemons (both protocols)")
	fs.StringVar(&c.probeWatch, "probe-watch", "", "probe mode: open one wire watch on this query, print snapshot + changes, exit")
	fs.Int64Var(&c.probeFrom, "probe-from", -1, "probe mode: resume cursor (WATCH from=version; -1: fresh watch)")
	fs.IntVar(&c.probeCount, "probe-count", 0, "probe mode: change notifications to await before exiting")
	fs.DurationVar(&c.probeTimeout, "probe-timeout", 10*time.Second, "probe mode: overall deadline")
	fs.IntVar(&c.queries, "queries", 8, "registered queries (each over its own two relations)")
	fs.IntVar(&c.watchers, "watchers", 16, "SSE watcher connections, spread over queries by Zipf popularity")
	fs.BoolVar(&c.hotQuery, "hot-query", false, "pin every watcher to q0 (mass fan-out of one hot query)")
	fs.Float64Var(&c.zipfS, "zipf", 1.3, "Zipf skew for watch and submit popularity (must be > 1)")
	fs.Float64Var(&c.rate, "rate", 200, "scheduled submits per second (open loop)")
	fs.DurationVar(&c.duration, "duration", 10*time.Second, "submit phase length")
	fs.DurationVar(&c.grace, "grace", 2*time.Second, "wait after the last submit for trailing notifications")
	fs.StringVar(&c.out, "out", "", "also write the JSON report to this file (empty: stdout summary only)")
	fs.Int64Var(&c.seed, "seed", 1, "popularity RNG seed")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.queries < 1 || c.watchers < 0 || c.rate <= 0 || c.zipfS <= 1 {
		return c, fmt.Errorf("need -queries >= 1, -watchers >= 0, -rate > 0, -zipf > 1")
	}
	if c.proto != "http" && c.proto != "wire" {
		return c, fmt.Errorf("-proto must be http or wire (got %q)", c.proto)
	}
	if c.probeWatch != "" && c.proto != "wire" {
		return c, fmt.Errorf("-probe-watch needs -proto wire")
	}
	return c, nil
}

// client is the tiny HTTP surface the harness needs.
type client struct {
	base  string
	token string
	http  *http.Client
}

func (cl *client) postJSON(path string, body, into any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, cl.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	cl.authorize(req)
	resp, err := cl.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(raw)))
	}
	if into != nil {
		return json.Unmarshal(raw, into)
	}
	return nil
}

// queryName and the per-query relation names: query i joins its own pair of
// relations, so a submit against query i is invisible to every other query
// and each registered query prices only its own traffic.
func queryName(i int) string { return fmt.Sprintf("q%d", i) }

func querySrc(i int) string { return fmt.Sprintf("R%d(x,y), S%d(y,z)", i, i) }

// latencyRecorder accumulates one latency population.
type latencyRecorder struct {
	mu   sync.Mutex
	durs []time.Duration
}

func (l *latencyRecorder) add(d time.Duration) {
	l.mu.Lock()
	l.durs = append(l.durs, d)
	l.mu.Unlock()
}

// percentiles summarises a population in milliseconds.
type percentiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_ms"`
	P99   float64 `json:"p99_ms"`
	P999  float64 `json:"p999_ms"`
	Max   float64 `json:"max_ms"`
}

func (l *latencyRecorder) summarise() percentiles {
	l.mu.Lock()
	durs := append([]time.Duration(nil), l.durs...)
	l.mu.Unlock()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	out := percentiles{Count: len(durs)}
	if len(durs) == 0 {
		return out
	}
	at := func(q float64) float64 {
		i := int(q * float64(len(durs)-1))
		return float64(durs[i].Nanoseconds()) / 1e6
	}
	out.P50, out.P99, out.P999 = at(0.50), at(0.99), at(0.999)
	out.Max = float64(durs[len(durs)-1].Nanoseconds()) / 1e6
	return out
}

// report is the JSON the run writes — the committed baseline CI regresses
// against.
type report struct {
	Config struct {
		Proto    string  `json:"proto"`
		Queries  int     `json:"queries"`
		Watchers int     `json:"watchers"`
		HotQuery bool    `json:"hot_query,omitempty"`
		Zipf     float64 `json:"zipf"`
		Rate     float64 `json:"rate_per_s"`
		Duration string  `json:"duration"`
	} `json:"config"`
	Submits      int             `json:"submits"`
	AckErrors    int             `json:"ack_errors"`
	SubmitAck    percentiles     `json:"submit_ack"`
	SubmitNotify percentiles     `json:"submit_notify"`
	Store        json.RawMessage `json:"store,omitempty"`
}

// watcher consumes one query's SSE stream and resolves markers: the first
// column of every added row is looked up in pendingMarks, and a hit records
// the scheduled-send → notification latency. LoadAndDelete makes the first
// watcher of a popular query win, so each submit is counted once.
func watcher(cl *client, name string, pendingMarks *sync.Map, notify *latencyRecorder, done <-chan struct{}, ready *sync.WaitGroup) {
	req, err := http.NewRequest(http.MethodGet, cl.base+"/watch?query="+name, nil)
	if err != nil {
		ready.Done()
		return
	}
	cl.authorize(req)
	resp, err := cl.http.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			resp.Body.Close()
		}
		ready.Done()
		return
	}
	go func() {
		<-done
		resp.Body.Close() // unblocks the scanner
	}()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	readyOnce := sync.OnceFunc(ready.Done)
	isChange := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			kind := strings.TrimPrefix(line, "event: ")
			isChange = kind == "change"
			if kind == "snapshot" {
				readyOnce() // subscribed: the stream will carry every later change
			}
		case strings.HasPrefix(line, "data: ") && isChange:
			now := time.Now()
			var n struct {
				Added [][]string `json:"added"`
			}
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &n) != nil {
				continue
			}
			for _, row := range n.Added {
				if len(row) == 0 {
					continue
				}
				if sched, ok := pendingMarks.LoadAndDelete(row[0]); ok {
					notify.add(now.Sub(sched.(time.Time)))
				}
			}
		}
	}
	readyOnce()
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if cfg.probeWatch != "" {
		return probeWatch(cfg, out)
	}
	var be backend
	if cfg.proto == "wire" {
		wb, err := newWireBackend(cfg.addr, cfg.token)
		if err != nil {
			return err
		}
		be = wb
	} else {
		be = &httpBackend{cl: &client{base: "http://" + cfg.addr, token: cfg.token, http: &http.Client{}}}
	}
	defer be.close()

	for i := 0; i < cfg.queries; i++ {
		if err := be.register(queryName(i), querySrc(i)); err != nil {
			return fmt.Errorf("registering %s: %w", queryName(i), err)
		}
	}

	// Zipf popularity over query indexes, shared by watchers and submits, so
	// hot queries both receive most traffic and carry most subscribers.
	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.queries-1))
	var pendingMarks sync.Map // marker (column value) → scheduled send time
	ack, notifyRec := &latencyRecorder{}, &latencyRecorder{}
	watched := make(map[int]bool)
	done := make(chan struct{})
	var watchersReady sync.WaitGroup
	for w := 0; w < cfg.watchers; w++ {
		qi := 0
		if !cfg.hotQuery {
			qi = int(zipf.Uint64())
		}
		watched[qi] = true
		watchersReady.Add(1)
		go be.watch(queryName(qi), &pendingMarks, notifyRec, done, &watchersReady)
	}
	watchersReady.Wait()

	// The open loop: submit k is scheduled at start + k/rate regardless of
	// how long earlier submits take; falling behind fires immediately but the
	// latency clock still starts at the scheduled instant.
	interval := time.Duration(float64(time.Second) / cfg.rate)
	var (
		inflight  sync.WaitGroup
		errMu     sync.Mutex
		ackErrors int
	)
	start := time.Now()
	submits := 0
	for k := 0; ; k++ {
		sched := start.Add(time.Duration(k) * interval)
		if sched.Sub(start) >= cfg.duration {
			break
		}
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		qi := int(zipf.Uint64())
		submits++
		inflight.Add(1)
		go func(k, qi int, sched time.Time) {
			defer inflight.Done()
			marker := fmt.Sprintf("m%d_%d", qi, k)
			mid := fmt.Sprintf("y%d_%d", qi, k)
			if watched[qi] {
				pendingMarks.Store(marker, sched)
			}
			// One linked pair through a fresh middle value: exactly one new
			// solution (marker, mid, z) of query qi, nothing else affected.
			if err := be.submit(qi, marker, mid, fmt.Sprintf("z%d_%d", qi, k)); err != nil {
				errMu.Lock()
				ackErrors++
				errMu.Unlock()
				pendingMarks.Delete(marker)
				return
			}
			ack.add(time.Since(sched))
		}(k, qi, sched)
	}
	inflight.Wait()
	time.Sleep(cfg.grace)
	close(done)

	var rep report
	rep.Config.Proto = cfg.proto
	rep.Config.Queries = cfg.queries
	rep.Config.Watchers = cfg.watchers
	rep.Config.HotQuery = cfg.hotQuery
	rep.Config.Zipf = cfg.zipfS
	rep.Config.Rate = cfg.rate
	rep.Config.Duration = cfg.duration.String()
	rep.Submits = submits
	rep.AckErrors = ackErrors
	rep.SubmitAck = ack.summarise()
	rep.SubmitNotify = notifyRec.summarise()
	if raw, err := be.stats(); err == nil {
		rep.Store = raw
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, data, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "proto=%s submits=%d ack_errors=%d\n", cfg.proto, rep.Submits, rep.AckErrors)
	fmt.Fprintf(out, "submit-ack     p50=%.2fms p99=%.2fms p999=%.2fms max=%.2fms (n=%d)\n",
		rep.SubmitAck.P50, rep.SubmitAck.P99, rep.SubmitAck.P999, rep.SubmitAck.Max, rep.SubmitAck.Count)
	fmt.Fprintf(out, "submit-notify  p50=%.2fms p99=%.2fms p999=%.2fms max=%.2fms (n=%d)\n",
		rep.SubmitNotify.P50, rep.SubmitNotify.P99, rep.SubmitNotify.P999, rep.SubmitNotify.Max, rep.SubmitNotify.Count)
	if rep.AckErrors > 0 {
		return fmt.Errorf("%d submits failed", rep.AckErrors)
	}
	return nil
}
