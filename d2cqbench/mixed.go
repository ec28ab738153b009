package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/live"
	"d2cq/internal/storage"
)

// mixed-http's fixed shape: one large two-atom join over a preloaded base
// about ten times the size fanout-wire ends with, submits and bounded page
// reads in equal shares over one keep-alive connection, one SSE watcher, and
// the daemon's default 25 ms window (few, larger flushes).
const (
	mixedBaseTuples = 50000 // per relation
	mixedJoinValues = 5000  // distinct join values y
	mixedRate       = 500   // operations per second, half submits, half reads
	mixedPage       = 100
	mixedQuery      = "M0"
)

// mixedFlags keep the default 25 ms window and, as fanoutFlags do, keep
// snapshot checkpoints out of the loop: at a checkpoint every 16 flushes,
// their 90 ms stalls set the delivery p99, whose spread over ten seeds was
// 0.22 of its median as the disk's latency drifted. The restart replays the
// whole log instead, preload and loop, and writes a checkpoint of it.
var mixedFlags = []string{"-checkpoint-every", "1000000"}

// httpSession holds the generator's two HTTP connections: keep-alive
// requests and the SSE stream.
type httpSession struct {
	base string
	req  *http.Client
	sse  *http.Client
	body io.Closer // the open SSE response body, if any
}

func newHTTPSession(d *daemon) *httpSession {
	one := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return &httpSession{base: "http://" + d.httpAddr, req: one(), sse: one()}
}

func (s *httpSession) close() {
	if s.body != nil {
		s.body.Close()
	}
	s.req.CloseIdleConnections()
	s.sse.CloseIdleConnections()
}

func (s *httpSession) stats(ctx context.Context) (statsDoc, error) {
	var st statsDoc
	err := s.do(ctx, http.MethodGet, "/stats", nil, &st.Store)
	return st, err
}

// do sends one request on the keep-alive connection and decodes the reply.
func (s *httpSession) do(ctx context.Context, method, path string, body, into any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.req.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(raw)))
	}
	if into != nil {
		return json.Unmarshal(raw, into)
	}
	return nil
}

type queryReply struct {
	Count int64 `json:"count"`
}

type solutionsReply struct {
	Version uint64     `json:"version"`
	Rows    [][]string `json:"rows"`
}

// update is the POST /update body.
func update(d *storage.Delta) map[string]any { return map[string]any{"insert": d.Insert} }

// watchSSE opens the SSE stream and returns its "change" notifications on
// a channel that closes when the stream ends.
func (s *httpSession) watchSSE(ctx context.Context, name string) (<-chan live.Notification, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/watch?query="+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.sse.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /watch: %s", resp.Status)
	}
	s.body = resp.Body
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	// Wait for the snapshot event so the stream is attached before set-up
	// ends.
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: snapshot") {
			break
		}
	}
	ch := make(chan live.Notification, 1024) // absorbs bursts while the tracker records
	go func() {
		defer close(ch)
		change := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				change = line == "event: change"
			case change && strings.HasPrefix(line, "data: "):
				var n live.Notification
				if json.Unmarshal([]byte(line[len("data: "):]), &n) == nil {
					ch <- n
				}
			}
		}
	}()
	return ch, nil
}

// mixedBase generates the base database: Ma(x_j, y) and Mb(y, z_j) with y
// drawn from mixedJoinValues values, and the join's solution count.
func mixedBase(r *rand.Rand) (cq.Database, map[string]string, map[string]string, int64) {
	db := cq.Database{}
	left, right := map[string]string{}, map[string]string{}
	degL, degR := map[string]int64{}, map[string]int64{}
	for j := 0; j < mixedBaseTuples; j++ {
		x, y := "x"+strconv.Itoa(j), "y"+strconv.Itoa(r.Intn(mixedJoinValues))
		db["Ma0"] = append(db["Ma0"], []string{x, y})
		left[x] = y
		degL[y]++
	}
	for j := 0; j < mixedBaseTuples; j++ {
		y, z := "y"+strconv.Itoa(r.Intn(mixedJoinValues)), "z"+strconv.Itoa(j)
		db["Mb0"] = append(db["Mb0"], []string{y, z})
		right[z] = y
		degR[y]++
	}
	var count int64
	for y, n := range degL {
		count += n * degR[y]
	}
	return db, left, right, count
}

func (b *bench) mixedHTTP(ctx context.Context, tr *tracer) (*passResult, error) {
	if b.nproc < 2 {
		return nil, fmt.Errorf("mixed-http needs two connections and so at least two CPUs")
	}
	r := rand.New(rand.NewSource(b.cfg.seed))
	base, left, right, baseCount := mixedBase(r)
	ops := newSchedule(time.Time{}, mixedRate, time.Duration(b.cfg.seconds)*time.Second)
	isRead := fixedShare(r, ops.n, 0.5)
	subIdx := make([]int, ops.n) // op → submit number (marker), -1 for reads
	nsub := 0
	for i := range subIdx {
		subIdx[i] = -1
		if !isRead[i] {
			subIdx[i] = nsub
			nsub++
		}
	}
	_, src := twoAtomQuery("M", 0)
	res := &passResult{}
	if tr != nil {
		res.rec = &recording{preload: base, streams: map[string]int{}}
	}
	var changes <-chan live.Notification
	connect := func(d *daemon) (session, error) { return newHTTPSession(d), nil }
	d, s, dir, err := b.setUp(ctx, res, mixedFlags, func(d *daemon) (session, error) {
		hs := newHTTPSession(d)
		for _, delta := range batches(base, 10000) {
			if err := hs.do(ctx, http.MethodPost, "/update?sync=1", update(delta), nil); err != nil {
				hs.close()
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		var qr queryReply
		if err := hs.do(ctx, http.MethodPost, "/query", map[string]any{"name": mixedQuery, "query": src}, &qr); err != nil {
			hs.close()
			return nil, err
		}
		if qr.Count != baseCount {
			res.problem("POST /query %s: count %d, model %d", mixedQuery, qr.Count, baseCount)
		}
		var err error
		if changes, err = hs.watchSSE(ctx, mixedQuery); err != nil {
			hs.close()
			return nil, err
		}
		return hs, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { teardown(d, s) }()
	hs := s.(*httpSession)

	tracker := newDeliveryTracker(nsub)
	rec := tracker.addStream()
	streamDone := make(chan struct{})
	var badRows atomic.Int64
	go func() {
		defer close(streamDone)
		for n := range changes {
			now := time.Now()
			rec.lagged += n.Lagged
			for _, row := range n.Added {
				tracker.deliver(rec, markerOf(row), now, n.Version)
			}
			if len(n.Removed) > 0 {
				badRows.Add(1)
			}
		}
	}()
	if tr != nil {
		if res.before, err = s.stats(ctx); err != nil {
			return nil, err
		}
	}
	ops.start = time.Now().Add(20 * time.Millisecond)
	for i, k := range subIdx {
		if k >= 0 {
			tracker.dues[k] = ops.due(i)
			tracker.expected[k] = 1
		}
	}

	// One worker sends in schedule order over the keep-alive connection;
	// the generator only hands it due operations, so a slow reply delays
	// everything queued behind it, and that wait counts from each
	// operation's due time.
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, ops.n) // sized to the number of sends
	acks := make([]time.Duration, nsub)
	ackSpans := make([]time.Duration, nsub)
	var readSpans []time.Duration
	failedOps := 0
	ackPop, readPop := res.pop("ack"), res.pop("read")
	worker := make(chan struct{})
	go func() {
		defer close(worker)
		for j := range jobs {
			start := time.Now()
			if k := subIdx[j.i]; k >= 0 {
				x, y, z := submitRow(k)
				err := hs.do(ctx, http.MethodPost, "/update", update(rowDelta("M", 0, x, y, z)), nil)
				end := time.Now()
				if tr != nil {
					tr.record(0, int64(k), "d2cqd", "http.update", start, end)
				}
				if err != nil {
					acks[k], ackSpans[k] = -1, -1
					failedOps++
					res.problem("POST /update %d: %v", k, err)
					continue
				}
				acks[k], ackSpans[k] = end.Sub(j.due), end.Sub(start)
				ackPop.add(acks[k])
				res.reply.add(acks[k])
				continue
			}
			var sr solutionsReply
			err := hs.do(ctx, http.MethodGet, "/solutions?query="+mixedQuery+"&limit="+strconv.Itoa(mixedPage), nil, &sr)
			end := time.Now()
			if tr != nil {
				tr.record(0, int64(nsub+len(readSpans)), "d2cqd", "http.solutions", start, end)
			}
			readSpans = append(readSpans, end.Sub(start))
			if err != nil {
				failedOps++
				res.problem("GET /solutions: %v", err)
				continue
			}
			lat := end.Sub(j.due)
			readPop.add(lat)
			res.reply.add(lat)
			if bad := checkMixedRows(sr.Rows, left, right, nsub); bad != "" {
				res.problem("GET /solutions: %s", bad)
			}
		}
	}()
	cpu0 := cpuTime()
	stopRSS := d.sampleRSS(rssInterval)
	ops.run(&res.lag, func(i int, due time.Time) { jobs <- job{i, due} })
	close(jobs)
	<-worker
	res.rss = stopRSS()
	expectedAll := 0
	for _, a := range acks {
		if a >= 0 {
			expectedAll++
		}
	}
	waitFor(5*time.Second, func() bool { return tracker.delivered() >= expectedAll })
	res.cpu = cpuTime() - cpu0
	if tr != nil {
		if res.after, err = s.stats(ctx); err != nil {
			return nil, err
		}
	}
	hs.body.Close()
	<-streamDone

	b.accountDeliveries(res, tracker, acks, ops.n-nsub, failedOps, int(badRows.Load()))
	if tr != nil {
		subQuery := make([]int, nsub)
		readQuery := make([]int, len(readSpans))
		b.recordTwoAtom(res, tracker, "M", 1, func(int) int { return 1 }, subQuery, acks, ackSpans, readQuery, readSpans, mixedPage)
	}

	want := baseCount
	for _, a := range acks {
		if a >= 0 {
			want++
		}
	}
	check := func(hs *httpSession, when string) {
		var qr queryReply
		if err := hs.do(ctx, http.MethodPost, "/query", map[string]any{"name": mixedQuery, "query": src}, &qr); err != nil {
			res.problem("%s: POST /query: %v", when, err)
		} else if qr.Count != want {
			res.problem("%s: %s has count %d, model %d", when, mixedQuery, qr.Count, want)
		}
	}
	check(hs, "end of run")
	if d, s, err = b.restartAndVerify(ctx, res, d, s, dir, mixedFlags, connect); err != nil {
		return nil, err
	}
	check(s.(*httpSession), "after restart")
	return res, nil
}

// checkMixedRows checks a page of the join: every row is a base solution
// or one a submit added.
func checkMixedRows(rows [][]string, left, right map[string]string, nsub int) string {
	if len(rows) != mixedPage {
		return fmt.Sprintf("%d rows, want a full page of %d", len(rows), mixedPage)
	}
	for _, row := range rows {
		if i := markerOf(row); i >= 0 {
			if i >= nsub {
				return fmt.Sprintf("row %v belongs to no submit", row)
			}
			continue
		}
		if len(row) != 3 || left[row[0]] != row[1] || right[row[2]] != row[1] {
			return fmt.Sprintf("row %v is not a solution of the base", row)
		}
	}
	return ""
}
