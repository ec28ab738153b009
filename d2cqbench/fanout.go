package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
	"d2cq/internal/wire"
)

// fanout-wire's fixed shape: a few two-atom queries, one of them hot with
// 256 credit-gated WATCH streams, a 2 ms coalescing window, and submits
// below the knee measured for this shape (ack p99 stays a few ms at 1000/s
// with 256 streams on two CPUs; this rate leaves the generator's decoding
// of every delivery room on the same two CPUs) and fast enough for 10 000
// submits in a 20 s loop, so a delivery p99 has a hundred samples beyond it.
const (
	fanoutQueries    = 4
	fanoutHotStreams = 256
	fanoutColdStream = 4
	fanoutPreload    = 16  // solutions per query before the loop
	fanoutRate       = 500 // submits per second
	fanoutReadRate   = 150 // point reads per second
	fanoutReadLimit  = 16
	fanoutHotShare   = 0.5
	watchWindow      = 64
)

// fanoutFlags keep snapshot checkpoints out of the loop. At d2cqd's default
// cadence of 64 flushes a checkpoint lands every quarter second and stalls
// the flushes behind it for its fsyncs and file removals: about 45 ms on a
// 2-CPU VM, twice that a minute later as the disk's latency drifted. Those
// stalls then decide the loop's delivery p99, whose spread over ten seeds
// was half its median. The restart replays the whole loop's log instead,
// and writes a checkpoint of it.
var fanoutFlags = []string{"-max-latency", "2ms", "-checkpoint-every", "1000000"}

// twoAtomQuery is query q of a family of two-atom joins P_a<q>(x,y),
// P_b<q>(y,z), each over its own relations so a submit to one query is
// invisible to the others.
func twoAtomQuery(prefix string, q int) (name, src string) {
	return fmt.Sprintf("%s%d", prefix, q), fmt.Sprintf("%sa%d(x,y), %sb%d(y,z)", prefix, q, prefix, q)
}

// rowDelta inserts the single solution (x, y, z) of query q.
func rowDelta(prefix string, q int, x, y, z string) *storage.Delta {
	return &storage.Delta{Insert: map[string][][]string{
		fmt.Sprintf("%sa%d", prefix, q): {{x, y}},
		fmt.Sprintf("%sb%d", prefix, q): {{y, z}},
	}}
}

// submitRow is the row submit i adds: its marker "a<i>" comes first in
// the query's sorted variable order (x, y, z).
func submitRow(i int) (x, y, z string) {
	s := strconv.Itoa(i)
	return "a" + s, "b" + s, "c" + s
}

// markerOf maps an added row back to the submit that produced it.
func markerOf(row []string) int {
	if len(row) != 3 || !strings.HasPrefix(row[0], "a") {
		return -1
	}
	i, err := strconv.Atoi(row[0][1:])
	if err != nil || row[1] != "b"+row[0][1:] || row[2] != "c"+row[0][1:] {
		return -1
	}
	return i
}

// fixedShare returns n choices of which exactly round(share*n) are true, in
// seeded order, so every seed gets the same mix.
func fixedShare(r *rand.Rand, n int, share float64) []bool {
	out := make([]bool, n)
	for i := 0; i < int(share*float64(n)+0.5); i++ {
		out[i] = true
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (b *bench) fanoutWire(ctx context.Context, tr *tracer) (*passResult, error) {
	r := rand.New(rand.NewSource(b.cfg.seed))
	dur := time.Duration(b.cfg.seconds) * time.Second
	// Inputs: preload rows, and per submit its query, per read its query.
	preload := cq.Database{}
	for q := 0; q < fanoutQueries; q++ {
		for j := 0; j < fanoutPreload; j++ {
			x, y, z := fmt.Sprintf("p%d_%dx%d", q, j, r.Intn(1000)), fmt.Sprintf("p%d_%dy", q, j), fmt.Sprintf("p%d_%dz", q, j)
			for rel, ts := range rowDelta("F", q, x, y, z).Insert {
				preload[rel] = append(preload[rel], ts...)
			}
		}
	}
	subs := newSchedule(time.Time{}, fanoutRate, dur)
	reads := newSchedule(time.Time{}, fanoutReadRate, dur)
	hot := fixedShare(r, subs.n, fanoutHotShare)
	subQuery := make([]int, subs.n)
	for i := range subQuery {
		if !hot[i] {
			subQuery[i] = 1 + r.Intn(fanoutQueries-1)
		}
	}
	readQuery := make([]int, reads.n)
	for i := range readQuery {
		readQuery[i] = r.Intn(fanoutQueries)
	}
	streamsOf := func(q int) int {
		if q == 0 {
			return fanoutHotStreams
		}
		return fanoutColdStream
	}

	res := &passResult{}
	if tr != nil {
		res.rec = &recording{preload: preload, streams: map[string]int{}}
	}
	var watches []*wire.Watch
	conns := min(2, b.nproc)
	connect := func(d *daemon) (session, error) { return dialWire(d, 1) }
	d, s, dir, err := b.setUp(ctx, res, fanoutFlags, func(d *daemon) (session, error) {
		ws, err := dialWire(d, conns)
		if err != nil {
			return nil, err
		}
		fail := func(err error) (session, error) { ws.close(); return nil, err }
		req, watch := ws.conns[0], ws.conns[len(ws.conns)-1]
		if _, _, err := req.Submit(ctx, &storage.Delta{Insert: preload}, true); err != nil {
			return fail(fmt.Errorf("preload: %w", err))
		}
		watches = watches[:0]
		for q := 0; q < fanoutQueries; q++ {
			name, src := twoAtomQuery("F", q)
			if _, err := req.Register(ctx, name, src); err != nil {
				return fail(fmt.Errorf("REGISTER %s: %w", name, err))
			}
			for k := 0; k < streamsOf(q); k++ {
				w, err := watch.Watch(ctx, name, wire.WatchOptions{Window: watchWindow})
				if err != nil {
					return fail(fmt.Errorf("WATCH %s: %w", name, err))
				}
				watches = append(watches, w)
			}
		}
		return ws, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { teardown(d, s) }()
	req := s.(*wireSession).conns[0]

	tracker := newDeliveryTracker(subs.n)
	start := time.Now().Add(20 * time.Millisecond)
	subs.start, reads.start = start, start
	for i := range tracker.dues {
		tracker.dues[i] = subs.due(i)
		tracker.expected[i] = int32(streamsOf(subQuery[i]))
	}
	// One goroutine per stream drains it into the tracker until the stream
	// ends.
	var streamWG sync.WaitGroup
	var badRows atomic.Int64
	for _, w := range watches {
		rec := tracker.addStream()
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			for {
				n, ok := w.Next(ctx)
				if !ok {
					return
				}
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
	}
	if tr != nil {
		if res.before, err = s.stats(ctx); err != nil {
			return nil, err
		}
	}

	acks := make([]time.Duration, subs.n) // scheduled send → ack; -1: failed
	ackSpans := make([]time.Duration, subs.n)
	readSpans := make([]time.Duration, reads.n)
	var failedOps atomic.Int64
	var mu sync.Mutex
	ackPop, readPop := res.pop("ack"), res.pop("read")
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	stopRSS := d.sampleRSS(rssInterval)
	var loops sync.WaitGroup
	loops.Add(2)
	go func() {
		defer loops.Done()
		subs.run(&res.lag, func(i int, due time.Time) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q := subQuery[i]
				x, y, z := submitRow(i)
				start := time.Now()
				_, _, err := req.Submit(ctx, rowDelta("F", q, x, y, z), false)
				end := time.Now()
				if tr != nil {
					tr.record(0, int64(i), "d2cqd", "wire.submit", start, end)
				}
				if err != nil {
					acks[i], ackSpans[i] = -1, -1
					failedOps.Add(1)
					mu.Lock()
					res.problem("SUBMIT %d: %v", i, err)
					mu.Unlock()
					return
				}
				acks[i], ackSpans[i] = end.Sub(due), end.Sub(start)
				ackPop.add(acks[i])
				res.reply.add(acks[i])
			}()
		})
	}()
	go func() {
		defer loops.Done()
		reads.run(&res.lag, func(i int, due time.Time) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q := readQuery[i]
				name, _ := twoAtomQuery("F", q)
				start := time.Now()
				rows, _, err := req.Solutions(ctx, name, fanoutReadLimit)
				end := time.Now()
				if tr != nil {
					tr.record(0, int64(subs.n+i), "d2cqd", "wire.query", start, end)
				}
				readSpans[i] = end.Sub(start)
				if err != nil {
					failedOps.Add(1)
					mu.Lock()
					res.problem("QUERY %s: %v", name, err)
					mu.Unlock()
					return
				}
				lat := end.Sub(due)
				readPop.add(lat)
				res.reply.add(lat)
				if bad := checkFanoutRows(rows, q, preload, subQuery); bad != "" {
					mu.Lock()
					res.problem("QUERY %s: %s", name, bad)
					mu.Unlock()
				}
			}()
		})
	}()
	loops.Wait()
	wg.Wait()
	res.rss = stopRSS()
	// Deliveries trail the last ack by up to a window plus fan-out.
	expectedAll := 0
	for i := range acks {
		if acks[i] >= 0 {
			expectedAll += int(tracker.expected[i])
		}
	}
	waitFor(5*time.Second, func() bool { return tracker.delivered() >= expectedAll })
	res.cpu = cpuTime() - cpu0
	if tr != nil {
		if res.after, err = s.stats(ctx); err != nil {
			return nil, err
		}
	}
	for _, w := range watches {
		w.Cancel()
	}
	streamWG.Wait()

	b.accountDeliveries(res, tracker, acks, reads.n, int(failedOps.Load()), int(badRows.Load()))
	if tr != nil {
		b.recordTwoAtom(res, tracker, "F", fanoutQueries, streamsOf, subQuery, acks, ackSpans, readQuery, readSpans, fanoutReadLimit)
	}

	// Final counts against the generator's model, then a crash restart that
	// replays every flush since set-up.
	want := make([]int64, fanoutQueries)
	for q := range want {
		want[q] = fanoutPreload
	}
	for i, q := range subQuery {
		if acks[i] >= 0 {
			want[q]++
		}
	}
	check := func(c *wire.Client, when string) {
		for q := 0; q < fanoutQueries; q++ {
			name, src := twoAtomQuery("F", q)
			info, err := c.Register(ctx, name, src)
			if err != nil {
				res.problem("%s: REGISTER %s: %v", when, name, err)
			} else if info.Count != want[q] {
				res.problem("%s: %s has count %d, model %d", when, name, info.Count, want[q])
			}
		}
	}
	check(req, "end of run")
	if d, s, err = b.restartAndVerify(ctx, res, d, s, dir, fanoutFlags, connect); err != nil {
		return nil, err
	}
	check(s.(*wireSession).conns[0], "after restart")
	return res, nil
}

// checkFanoutRows checks that every row a point read returned is a
// solution of query q: a preloaded row or a submitted one.
func checkFanoutRows(rows [][]string, q int, preload cq.Database, subQuery []int) string {
	if len(rows) > fanoutReadLimit {
		return fmt.Sprintf("%d rows for limit %d", len(rows), fanoutReadLimit)
	}
	pre := map[string]bool{}
	for _, t := range preload[fmt.Sprintf("Fa%d", q)] {
		pre[t[0]+"|"+t[1]] = true
	}
	for _, row := range rows {
		if i := markerOf(row); i >= 0 {
			if i >= len(subQuery) || subQuery[i] != q {
				return fmt.Sprintf("row %v belongs to no submit of this query", row)
			}
			continue
		}
		if len(row) != 3 || !pre[row[0]+"|"+row[1]] {
			return fmt.Sprintf("row %v is not a preloaded solution", row)
		}
	}
	return ""
}

// accountDeliveries folds the tracker into the pass: per-delivery notify
// samples, per-submit delivery (ack and every stream's delivery), and the
// failures: lost deliveries and lagged streams count as failed, while
// duplicates and rows no submit produced are wrong outputs.
func (b *bench) accountDeliveries(res *passResult, t *deliveryTracker, acks []time.Duration, reads, failedOps, badRows int) {
	rep := t.report(func(i int) bool { return acks[i] >= 0 })
	res.pop("notify").addAll(t.samples())
	for i, ack := range acks {
		if ack < 0 {
			continue
		}
		last, all := t.complete(i)
		if all {
			res.delivered.add(max(ack, last))
		}
	}
	res.attempted = len(acks) + reads + rep.expected
	res.failed = failedOps + rep.lost
	if rep.lost > 0 {
		res.problem("%d of %d deliveries never arrived (%d notifications lost to lag)", rep.lost, rep.expected, rep.lagged)
	}
	if rep.dups > 0 || rep.unknown > 0 || badRows > 0 {
		res.problem("streams delivered %d duplicate rows, %d rows no submit produced, %d removals", rep.dups, rep.unknown, badRows)
	}
}

// recordTwoAtom keeps a traced two-atom workload's inputs for the replay.
func (b *bench) recordTwoAtom(res *passResult, t *deliveryTracker, prefix string, queries int, streamsOf func(int) int,
	subQuery []int, acks, ackSpans []time.Duration, readQuery []int, readSpans []time.Duration, limit int) {
	rec := res.rec
	rec.tracker = t
	for q := 0; q < queries; q++ {
		name, src := twoAtomQuery(prefix, q)
		parsed, _ := cq.ParseQuery(src)
		rec.queries = append(rec.queries, recQuery{name: name, src: src, q: parsed, reply: -1})
		rec.streams[name] = streamsOf(q)
	}
	for i, q := range subQuery {
		x, y, z := submitRow(i)
		span := ackSpans[i]
		if acks[i] < 0 {
			span = -1
		}
		rec.submits = append(rec.submits, recSubmit{query: q, delta: rowDelta(prefix, q, x, y, z), client: span})
	}
	for i, q := range readQuery {
		rec.reads = append(rec.reads, recRead{query: q, limit: limit, client: readSpans[i]})
	}
	if d := res.before.Store.Durability; d != nil {
		rec.ckptSince = d.FlushesSinceCheckpoint
	}
}

// checkCountsWire reads every registration's count back after a restart
// through a WATCH snapshot, which needs no new Prepare, and checks it
// against the reference.
func checkCountsWire(ctx context.Context, res *passResult, c *wire.Client, regs []registration) {
	for _, r := range regs {
		w, err := c.Watch(ctx, r.name, wire.WatchOptions{Window: 1})
		if err != nil {
			res.problem("after restart, WATCH %s: %v", r.name, err)
			continue
		}
		if w.Snapshot.Count != r.want {
			res.problem("after restart, %s has count %d, reference %d", r.name, w.Snapshot.Count, r.want)
		}
		w.Cancel()
	}
}
