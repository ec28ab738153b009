package main

import (
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
	}{
		{10000, "p99.9"}, // rank 9989: ten samples beyond
		{9999, "p99"},    // p99.9 would leave nine
		{1000, "p99"},    // rank 989: ten beyond
		{999, "p90"},
		{100, "p90"},
		{50, "p50"},
		{20, "p50"},
		{19, ""},
		{0, ""},
	} {
		label, q, ok := tailQuantile(c.n)
		if label != c.label || ok != (c.label != "") {
			t.Errorf("tailQuantile(%d) = %q, %v; want %q", c.n, label, ok, c.label)
		}
		if ok && beyond(c.n, q) < 10 {
			t.Errorf("tailQuantile(%d) = %s leaves %d samples beyond", c.n, label, beyond(c.n, q))
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := summarize(ds)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.TailLabel != "p99" || s.Tail != 990 {
		t.Fatalf("summary = %+v", s)
	}
}

// An open loop times each operation from when it was due, so a generator
// that starts late charges the lateness to every operation it delayed, and
// records that lateness as lag.
func TestScheduleTimesFromDueTime(t *testing.T) {
	late := 40 * time.Millisecond
	s := schedule{start: time.Now().Add(-late), interval: 10 * time.Millisecond, n: 8}
	var lag population
	lat := make([]time.Duration, s.n)
	s.run(&lag, func(i int, due time.Time) {
		if !due.Equal(s.due(i)) {
			t.Errorf("op %d dispatched with due %v, schedule says %v", i, due, s.due(i))
		}
		lat[i] = time.Since(due)
	})
	if lag.summary().N != s.n {
		t.Fatalf("lag has %d samples, want %d", lag.summary().N, s.n)
	}
	for i := 0; i < 4; i++ {
		// Ops 0-3 were due before the loop began.
		if want := late - time.Duration(i)*s.interval; lat[i] < want {
			t.Errorf("op %d latency %v hides the generator's lateness (at least %v)", i, lat[i], want)
		}
		if lag.samples[i] < late-time.Duration(i)*s.interval {
			t.Errorf("op %d lag %v, want at least %v", i, lag.samples[i], late-time.Duration(i)*s.interval)
		}
	}
}

func TestDeliveryTrackerAccounting(t *testing.T) {
	tr := newDeliveryTracker(3)
	base := time.Now()
	for i := range tr.dues {
		tr.dues[i] = base.Add(time.Duration(i) * time.Millisecond)
		tr.expected[i] = 2
	}
	a, b := tr.addStream(), tr.addStream()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr.deliver(a, 0, at(5), 7)
	tr.deliver(a, 1, at(6), 7)
	tr.deliver(a, 2, at(9), 8)
	tr.deliver(b, 0, at(12), 7)
	tr.deliver(b, 0, at(13), 7) // duplicate
	tr.deliver(b, 2, at(10), 8)
	tr.deliver(b, 99, at(10), 8) // a row no submit produced
	b.lagged = 1                 // b fell off the ring once and never got submit 1
	rep := tr.report(func(int) bool { return true })
	want := deliveryReport{expected: 6, lost: 1, dups: 1, unknown: 1, lagged: 1}
	if rep != want {
		t.Fatalf("report = %+v, want %+v", rep, want)
	}
	if n := len(tr.samples()); n != 5 {
		t.Errorf("%d notify samples, want one per delivery: 5", n)
	}
	// Submit 0 completes when its slower stream delivers it: 12ms after due.
	if d, all := tr.complete(0); !all || d != 12*time.Millisecond {
		t.Errorf("complete(0) = %v, %v; want 12ms, true", d, all)
	}
	if _, all := tr.complete(1); all {
		t.Error("complete(1) reports every stream delivered; stream b lost it")
	}
	if v := tr.version[2].Load(); v != 8 {
		t.Errorf("submit 2 delivered at version %d, want 8", v)
	}
	// A submit that was never acknowledged owes no deliveries.
	if rep := tr.report(func(i int) bool { return i != 1 }); rep.lost != 0 || rep.expected != 4 {
		t.Errorf("report without submit 1 = %+v", rep)
	}
	if tr.delivered() != 5 {
		t.Errorf("delivered() = %d, want 5", tr.delivered())
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Layer: "live", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Layer: "engine", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Layer: "engine", Start: ms(20), End: ms(50)}, // overlaps span 2
		{ID: 4, Parent: 1, Layer: "wal", Start: ms(90), End: ms(120)},   // runs past its parent
		{ID: 5, Parent: 3, Layer: "storage", Start: ms(25), End: ms(35)},
		{ID: 6, Layer: "d2cqd", Start: ms(200), End: ms(210)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 50 * time.Millisecond, // 100 minus [10,50) and [90,100)
		2: 20 * time.Millisecond,
		3: 20 * time.Millisecond, // 30 minus its child's 10
		4: 30 * time.Millisecond,
		5: 10 * time.Millisecond,
		6: 10 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	if layers["engine"] != 40*time.Millisecond || layers["live"] != 50*time.Millisecond || layers["storage"] != 10*time.Millisecond {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestTracerOpenClose(t *testing.T) {
	tr := newTracer()
	parent := tr.open(0, 1, "live", "flush")
	tr.time(parent, 1, "engine", "Apply", func() { time.Sleep(2 * time.Millisecond) })
	tr.close(parent)
	spans := tr.all()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || time.Duration(spans[1].End-spans[1].Start) < 2*time.Millisecond {
		t.Errorf("parent %v does not cover child %v", spans[0], spans[1])
	}
}
