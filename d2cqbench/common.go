package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/live"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
	"d2cq/internal/wire"
)

// statsDoc is the daemon's stats: the wire STATS document, or GET /stats in
// its store field.
type statsDoc struct {
	Wire  wire.ServerStats `json:"wire"`
	Store live.Stats       `json:"store"`
}

func wireStats(ctx context.Context, c *wire.Client) (statsDoc, error) {
	var st statsDoc
	raw, err := c.Stats(ctx)
	if err != nil {
		return st, fmt.Errorf("STATS: %w", err)
	}
	return st, json.Unmarshal(raw, &st)
}

// session is the generator's connection to one daemon life.
type session interface {
	stats(ctx context.Context) (statsDoc, error)
	close()
}

// wireSession is a session over wire connections.
type wireSession struct{ conns []*wire.Client }

func (s *wireSession) stats(ctx context.Context) (statsDoc, error) { return wireStats(ctx, s.conns[0]) }

func (s *wireSession) close() {
	for _, c := range s.conns {
		c.Close()
	}
}

func dialWire(d *daemon, n int) (*wireSession, error) {
	s := &wireSession{}
	for i := 0; i < n; i++ {
		c, err := wire.Dial(d.wireAddr, wire.ClientOptions{})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial wire: %w", err)
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// batches splits a database into deltas of at most n tuples, in a fixed
// relation order.
func batches(db cq.Database, n int) []*storage.Delta {
	rels := make([]string, 0, len(db))
	for r := range db {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	var out []*storage.Delta
	cur, size := &storage.Delta{Insert: map[string][][]string{}}, 0
	for _, r := range rels {
		for _, t := range db[r] {
			cur.Insert[r] = append(cur.Insert[r], t)
			if size++; size == n {
				out = append(out, cur)
				cur, size = &storage.Delta{Insert: map[string][][]string{}}, 0
			}
		}
	}
	if size > 0 {
		out = append(out, cur)
	}
	return out
}

// setUp starts the daemon setupReps times, each time on a fresh data
// directory, and runs prepare (preload, registrations, watch attach)
// against it. Every set-up is timed from process start; all but the last
// are torn down. It returns the last daemon, its session and data directory.
func (b *bench) setUp(ctx context.Context, res *passResult, flags []string,
	prepare func(*daemon) (session, error)) (*daemon, session, string, error) {
	res.flags = daemonArgs("<data-dir>", flags)
	for rep := 0; ; rep++ {
		dir := b.dataDir()
		quiesceDisk()
		t0 := time.Now()
		d, err := startDaemon(ctx, b.cfg.d2cqd, daemonArgs(dir, flags), b.nproc)
		if err != nil {
			return nil, nil, "", err
		}
		s, err := prepare(d)
		if err != nil {
			d.kill()
			return nil, nil, "", fmt.Errorf("set-up: %w (daemon: %s)", err, d.stderr)
		}
		res.setup = append(res.setup, time.Since(t0))
		if rep == setupReps-1 {
			quiesceDisk() // before the loop
			return d, s, dir, nil
		}
		s.close()
		d.kill()
		os.RemoveAll(dir)
	}
}

// quiesceDisk writes back every dirty page before a timed phase, so the
// daemon's fsyncs in that phase wait for its own writes, not for the
// writeback of earlier set-ups, loops or runs.
func quiesceDisk() { syscall.Sync() }

// teardown stops what set-up and restart left running.
func teardown(d *daemon, s session) {
	if s != nil {
		s.close()
	}
	if d != nil {
		d.stop()
	}
}

// restartAndVerify reads the acknowledged state, kills the daemon with
// SIGKILL, and restarts it over the same data directory. restart_s runs
// from the kill until the new daemon answers stats at the acknowledged
// version; the replay length must equal the log suffix the killed daemon
// had not checkpointed. For a traced pass the WAL suffix is also replayed
// in-process (wal.Replay) while the daemon is down.
func (b *bench) restartAndVerify(ctx context.Context, res *passResult, d *daemon, s session, dir string,
	flags []string, connect func(*daemon) (session, error)) (*daemon, session, error) {
	pre, err := s.stats(ctx)
	if err != nil {
		return d, s, err
	}
	if pre.Store.Durability == nil {
		return d, s, fmt.Errorf("daemon reports no durability section")
	}
	wantReplay := pre.Store.Durability.NextLSN - 1 - pre.Store.Durability.LastCheckpointLSN
	// The daemon that served the loop.
	if res.peakRSS, err = d.statusMB("VmHWM"); err != nil {
		return d, s, err
	}
	s.close()
	quiesceDisk()
	t0 := time.Now()
	d.kill()
	downtime := time.Since(t0)
	if res.rec != nil {
		fsb, err := wal.NewFS(dir)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		err = wal.Replay(fsb, pre.Store.Durability.LastCheckpointLSN+1, func(wal.Record) error {
			res.walReplayRecs++
			return nil
		})
		res.walReplay = time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("in-process WAL replay: %w", err)
		}
	}
	t1 := time.Now()
	nd, err := startDaemon(ctx, b.cfg.d2cqd, daemonArgs(dir, flags), b.nproc)
	if err != nil {
		return nil, nil, fmt.Errorf("restart: %w", err)
	}
	ns, err := connect(nd)
	if err != nil {
		nd.kill()
		return nil, nil, fmt.Errorf("reconnect after restart: %w", err)
	}
	post, err := ns.stats(ctx)
	res.restart = downtime + time.Since(t1)
	if err != nil {
		ns.close()
		nd.kill()
		return nil, nil, err
	}
	if post.Store.Version != pre.Store.Version {
		res.problem("restart: version %d, acknowledged %d", post.Store.Version, pre.Store.Version)
	}
	if got := post.Store.Durability.ReplayedRecords; got != wantReplay {
		res.problem("restart: replayed %d records, the log held %d past the checkpoint", got, wantReplay)
	}
	if res.rec != nil {
		if uint64(res.walReplayRecs) != wantReplay {
			res.problem("in-process WAL replay read %d records, want %d", res.walReplayRecs, wantReplay)
		}
		res.replayRecs = post.Store.Durability.ReplayedRecords
	}
	return nd, ns, nil
}

// waitFor polls cond until it holds or the grace period ends.
func waitFor(grace time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(grace)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}
