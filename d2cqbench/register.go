package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"d2cq/internal/cq"
)

// registerRate is register-corpus's fixed open-loop rate (registrations per
// second): 3000 in a 20 s loop, so p99 has 30 samples beyond it. It is below
// the knee on two CPUs, where the corpus's decomposition searches keep the
// daemon well under one core busy.
const registerRate = 150.0

// preloadBatch bounds the tuples per preload submit.
const preloadBatch = 4000

func (b *bench) registerCorpus(ctx context.Context, tr *tracer) (*passResult, error) {
	n := int(registerRate * float64(b.cfg.seconds))
	regs, err := genCorpus(b.cfg.seed, n)
	if err != nil {
		return nil, err
	}
	preload := cq.Database{}
	for _, r := range regs {
		for rel, ts := range r.db {
			preload[rel] = ts
		}
	}
	res := &passResult{}
	if tr != nil {
		res.rec = &recording{preload: preload, streams: map[string]int{}}
	}
	var flags []string // the daemon's defaults: 25ms window, checkpoint every 64 flushes
	connect := func(d *daemon) (session, error) { return dialWire(d, 1) }
	d, s, dir, err := b.setUp(ctx, res, flags, func(d *daemon) (session, error) {
		ws, err := dialWire(d, 1)
		if err != nil {
			return nil, err
		}
		for _, delta := range batches(preload, preloadBatch) {
			if _, _, err := ws.conns[0].Submit(ctx, delta, true); err != nil {
				ws.close()
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		return ws, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { teardown(d, s) }()
	c := s.(*wireSession).conns[0]
	if tr != nil {
		if res.before, err = s.stats(ctx); err != nil {
			return nil, err
		}
	}

	replies := make([]time.Duration, n)
	var failed atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	regPop := res.pop("register")
	cpu0 := cpuTime()
	stopRSS := d.sampleRSS(rssInterval)
	sched := newSchedule(time.Now().Add(10*time.Millisecond), registerRate, time.Duration(b.cfg.seconds)*time.Second)
	sched.n = n
	sched.run(&res.lag, func(i int, due time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := regs[i]
			start := time.Now()
			info, err := c.Register(ctx, r.name, r.src)
			end := time.Now()
			if tr != nil {
				tr.record(0, int64(i), "d2cqd", "wire.register", start, end)
			}
			replies[i] = -1
			if err != nil {
				failed.Add(1)
				mu.Lock()
				res.problem("REGISTER %s: %v", r.name, err)
				mu.Unlock()
				return
			}
			lat := end.Sub(due)
			replies[i] = lat
			res.reply.add(lat)
			res.delivered.add(lat)
			regPop.add(lat)
			if info.Count != r.want {
				mu.Lock()
				res.problem("REGISTER %s (%s %s): count %d, reference %d", r.name, r.kind, r.family, info.Count, r.want)
				mu.Unlock()
			}
		}()
	})
	wg.Wait()
	res.rss = stopRSS()
	res.cpu = cpuTime() - cpu0
	res.attempted, res.failed = n, int(failed.Load())
	if tr != nil {
		if res.after, err = s.stats(ctx); err != nil {
			return nil, err
		}
		for i, r := range regs {
			res.rec.queries = append(res.rec.queries, recQuery{name: r.name, src: r.src, q: r.q,
				family: r.family, fresh: r.kind != "repeat", reply: replies[i]})
		}
	}

	d, s, err = b.restartAndVerify(ctx, res, d, s, dir, flags, connect)
	if err != nil {
		return nil, err
	}
	// Every acknowledged registration must come back with its count.
	var acked []registration
	for i, r := range regs {
		if replies[i] >= 0 {
			acked = append(acked, r)
		}
	}
	checkCountsWire(ctx, res, s.(*wireSession).conns[0], acked)
	return res, nil
}
