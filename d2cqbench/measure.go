package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// population is one timed population of a run: every sample is a duration
// measured from an operation's scheduled send time.
type population struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (p *population) add(d time.Duration) {
	p.mu.Lock()
	p.samples = append(p.samples, d)
	p.mu.Unlock()
}

func (p *population) addAll(ds []time.Duration) {
	for _, d := range ds {
		p.add(d)
	}
}

func (p *population) summary() summary {
	p.mu.Lock()
	ds := append([]time.Duration(nil), p.samples...)
	p.mu.Unlock()
	return summarize(ds)
}

// medianF is the median of xs (the mean of the middle two for an even
// count).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// summary is a population's median, its p99 and its tail: the highest of the
// standard percentiles that still has at least ten samples beyond it.
type summary struct {
	N         int
	P50, P99  float64 // milliseconds
	TailLabel string  // "p99.9", "p99", "p90", "p50" or "" when N == 0
	Tail      float64 // milliseconds
}

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []struct {
	label string
	q     float64
}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}, {"p50", 0.50}}

// tailQuantile picks the highest percentile with at least ten of n samples
// strictly above its rank, so a tail is never read off a handful of
// outliers. ok is false when even the median has fewer than ten beyond it.
func tailQuantile(n int) (label string, q float64, ok bool) {
	for _, l := range tailLevels {
		if beyond(n, l.q) >= 10 {
			return l.label, l.q, true
		}
	}
	return "", 0, false
}

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// beyond counts the samples ranked strictly above quantile q.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return ms(sorted[rank(len(sorted), q)])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func summarize(ds []time.Duration) summary {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	s := summary{N: len(ds), P50: quantile(ds, 0.50), P99: quantile(ds, 0.99)}
	if label, q, ok := tailQuantile(len(ds)); ok {
		s.TailLabel, s.Tail = label, quantile(ds, q)
	}
	return s
}

func (s summary) String() string {
	tail := "no tail (fewer than 11 samples)"
	if s.TailLabel != "" {
		tail = fmt.Sprintf("tail %s=%.3fms", s.TailLabel, s.Tail)
	}
	warn := ""
	if beyond(s.N, 0.99) < 10 {
		warn = " (p99 has fewer than ten samples beyond it)"
	}
	return fmt.Sprintf("n=%d p50=%.3fms p99=%.3fms %s%s", s.N, s.P50, s.P99, tail, warn)
}

// schedule is an open loop: operation i is due at start + i*interval, no
// matter how long earlier operations take. Latency is timed from the due
// time, so a stall charges every operation scheduled during it (no
// coordinated omission), and the generator's own lateness is recorded
// separately as lag.
type schedule struct {
	start    time.Time
	interval time.Duration
	n        int
}

func newSchedule(start time.Time, rate float64, d time.Duration) schedule {
	interval := time.Duration(float64(time.Second) / rate)
	return schedule{start: start, interval: interval, n: int(d / interval)}
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// run dispatches every operation at its due time, records how late each
// dispatch was into lag, and returns once all are dispatched. send must not
// block for long: it starts the operation and returns.
func (s schedule) run(lag *population, send func(i int, due time.Time)) {
	for i := 0; i < s.n; i++ {
		due := s.due(i)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag.add(time.Since(due))
		send(i, due)
	}
}

// deliveryTracker accounts for every stream's delivery of every submitted
// row: each submit i adds one row, due at dues[i], that each of the
// streams watching its query must receive exactly once. Each stream's
// goroutine owns its own bitset and sample slice, so recording needs no lock;
// per-submit counters are atomic.
type deliveryTracker struct {
	dues     []time.Time
	expected []int32 // streams that must deliver submit i
	got      []atomic.Int32
	last     []atomic.Int64  // latest delivery of submit i, ns after dues[i]
	version  []atomic.Uint64 // version of the flush that delivered submit i
	streams  []*streamRecord
}

type streamRecord struct {
	seen    []uint64
	samples []time.Duration
	dups    int
	unknown int
	lagged  uint64
}

func newDeliveryTracker(n int) *deliveryTracker {
	return &deliveryTracker{
		dues:     make([]time.Time, n),
		expected: make([]int32, n),
		got:      make([]atomic.Int32, n),
		last:     make([]atomic.Int64, n),
		version:  make([]atomic.Uint64, n),
	}
}

// addStream registers one stream before any delivery is recorded.
func (t *deliveryTracker) addStream() *streamRecord {
	r := &streamRecord{seen: make([]uint64, (len(t.dues)+63)/64)}
	t.streams = append(t.streams, r)
	return r
}

// deliver records stream r's delivery of submit i's row at time now, in
// the notification of the given version.
func (t *deliveryTracker) deliver(r *streamRecord, i int, now time.Time, version uint64) {
	if i < 0 || i >= len(t.dues) {
		r.unknown++
		return
	}
	w, bit := i/64, uint64(1)<<(i%64)
	if r.seen[w]&bit != 0 {
		r.dups++
		return
	}
	r.seen[w] |= bit
	d := now.Sub(t.dues[i])
	r.samples = append(r.samples, d)
	t.got[i].Add(1)
	t.version[i].Store(version)
	for {
		old := t.last[i].Load()
		if int64(d) <= old || t.last[i].CompareAndSwap(old, int64(d)) {
			break
		}
	}
}

// deliveryReport totals a tracker once every stream has stopped.
type deliveryReport struct {
	expected, lost, dups, unknown int
	lagged                        uint64
}

func (t *deliveryTracker) report(submitted func(i int) bool) deliveryReport {
	var rep deliveryReport
	for i := range t.dues {
		if !submitted(i) {
			continue
		}
		want, got := int(t.expected[i]), int(t.got[i].Load())
		rep.expected += want
		if got < want {
			rep.lost += want - got
		}
	}
	for _, r := range t.streams {
		rep.dups += r.dups
		rep.unknown += r.unknown
		rep.lagged += r.lagged
	}
	return rep
}

// delivered counts the deliveries recorded so far.
func (t *deliveryTracker) delivered() int {
	n := 0
	for i := range t.got {
		n += int(t.got[i].Load())
	}
	return n
}

// samples pools every stream's per-delivery latencies.
func (t *deliveryTracker) samples() []time.Duration {
	var all []time.Duration
	for _, r := range t.streams {
		all = append(all, r.samples...)
	}
	return all
}

// complete returns, for submit i, the time from its due time to the last
// stream's delivery, and whether every stream delivered it.
func (t *deliveryTracker) complete(i int) (time.Duration, bool) {
	return time.Duration(t.last[i].Load()), t.got[i].Load() >= t.expected[i]
}

// span is one timed call at a layer boundary. Spans of one operation share
// op; parent links a span to the span that caused it (0: none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// record stores a finished span and returns its id.
func (t *tracer) record(parent, op int64, layer, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	return t.next
}

// open starts a span whose children are recorded before it ends; close
// ends it.
func (t *tracer) open(parent, op int64, layer, name string) int64 {
	now := time.Now()
	return t.record(parent, op, layer, name, now, now)
}

func (t *tracer) close(id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.base))
}

// time runs fn inside a span and returns its duration.
func (t *tracer) time(parent, op int64, layer, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(parent, op, layer, name, start, end)
	return end.Sub(start)
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}
