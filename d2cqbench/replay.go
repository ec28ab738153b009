package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/decomp"
	"d2cq/internal/engine"
	"d2cq/internal/live"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
	"d2cq/internal/wire"
)

// checkpointEvery is the daemon's checkpoint cadence in flushes under the
// given flags: -checkpoint-every, or d2cqd's default of 64.
func checkpointEvery(flags []string) int {
	for i, f := range flags {
		if f == "-checkpoint-every" && i+1 < len(flags) {
			if n, err := strconv.Atoi(flags[i+1]); err == nil && n > 0 {
				return n
			}
		}
	}
	return 64
}

// WAL record types as d2cqd's durable store writes them, so the replayed
// log carries the same payloads.
const (
	walRecDelta byte = 1
	walRecQuery byte = 2
)

// Span op ids of replayed calls, disjoint from the client ops of a pass.
const replayOp = 1 << 40

// recording is what a traced pass keeps of its inputs and outcomes for the
// in-process replay.
type recording struct {
	queries []recQuery
	preload cq.Database
	submits []recSubmit
	reads   []recRead
	streams map[string]int // watch streams per query name
	tracker *deliveryTracker
	// Flushes since the daemon's last checkpoint when the loop began, so the
	// replay checkpoints where the daemon did.
	ckptSince int
	// widths maps each shape's decomposition-cache key to its width, as the
	// replay's searches found it.
	widths map[string]int
}

type recQuery struct {
	name, src string
	q         cq.Query
	family    string        // register-corpus's shape family
	fresh     bool          // fresh shape or permuted copy: a decomposition-cache miss by construction
	reply     time.Duration // scheduled send → REGISTER reply (-1: failed or set-up)
}

type recSubmit struct {
	query  int
	delta  *storage.Delta
	client time.Duration // the client call's own span (-1: failed)
}

type recRead struct {
	query  int
	limit  int
	client time.Duration
}

// notification is the live.Notification a stream of query q received for
// the submits of one flush, rebuilt for the replay.
func notification(name string, version uint64, prev int64, rows [][]string) live.Notification {
	return live.Notification{Query: name, Version: version, PrevCount: prev, Count: prev + int64(len(rows)), Added: rows}
}

// replay feeds the traced pass's recorded inputs through each layer's
// public functions in-process, one call per span, and derives the per-layer
// metrics from those spans and from the daemon's stats before and after the
// loop. It returns the metrics and every span of the pass.
func (b *bench) replay(ctx context.Context, r *passResult, tr *tracer) (map[string]metric, []span, error) {
	rec := r.rec
	m := map[string]metric{}
	mark := int64(len(tr.all()))
	root := tr.open(0, replayOp, "loadgen", "replay")

	// decomp: one search per distinct shape, in first-registration order.
	widths := map[string]int{}
	var search []time.Duration
	for i, q := range rec.queries {
		h := q.q.Hypergraph()
		key := decomp.CacheKey(h)
		if _, seen := widths[key]; seen {
			continue
		}
		var g *decomp.GHD
		var err error
		search = append(search, tr.time(root, replayOp+int64(i), "decomp", "EvalDecomposition", func() { g, err = decomp.EvalDecomposition(h) }))
		if err != nil {
			return nil, nil, fmt.Errorf("replay search %s: %w", q.name, err)
		}
		widths[key] = g.Width()
	}
	ss := summarize(search)
	m["decomp.search_p50_ms"] = metric{ss.P50, "ms"}
	m["decomp.search_p99_ms"] = metric{ss.P99, "ms"}
	m["decomp.search_max_ms"] = metric{maxMS(search), "ms"}
	m["decomp.shapes"] = metric{float64(len(search)), "count"}
	rec.widths = widths
	m["decomp.tail_widest_share"] = metric{widestTailShare(rec), "ratio"}

	// engine: Prepare, Bind and Count of every registration on a fresh
	// engine over the preloaded database.
	eng := engine.NewEngine()
	var cdb *engine.CompiledDB
	var err error
	tr.time(root, replayOp, "engine", "CompileDB", func() { cdb, err = eng.CompileDB(ctx, rec.preload) })
	if err != nil {
		return nil, nil, fmt.Errorf("replay CompileDB: %w", err)
	}
	bound := make([]*engine.BoundQuery, len(rec.queries))
	counts := make([]int64, len(rec.queries))
	var prep, bind, count []time.Duration
	for i, q := range rec.queries {
		op := replayOp + int64(i)
		var p *engine.PreparedQuery
		prep = append(prep, tr.time(root, op, "engine", "Prepare", func() { p, err = eng.Prepare(ctx, q.q) }))
		if err != nil {
			return nil, nil, fmt.Errorf("replay Prepare %s: %w", q.name, err)
		}
		bind = append(bind, tr.time(root, op, "engine", "Bind", func() { bound[i], err = p.Bind(ctx, cdb) }))
		if err != nil {
			return nil, nil, fmt.Errorf("replay Bind %s: %w", q.name, err)
		}
		count = append(count, tr.time(root, op, "engine", "Count", func() { counts[i], err = bound[i].Count(ctx) }))
		if err != nil {
			return nil, nil, fmt.Errorf("replay Count %s: %w", q.name, err)
		}
	}
	putP50P99(m, "engine.prepare", prep)
	putP50P99(m, "engine.bind", bind)
	putP50P99(m, "engine.count", count)

	// Flushes: the loop's submits grouped by the version of the notification
	// that delivered them, which is exactly the daemon's batching.
	log, err := openReplayLog(filepath.Join(b.dir, "replay-wal"))
	if err != nil {
		return nil, nil, err
	}
	defer log.Close()
	var appends []time.Duration
	for i, q := range rec.queries {
		if q.reply < 0 {
			continue // registered during set-up, not in the loop
		}
		payload := make([]byte, 4+len(q.name)+len(q.src))
		binary.LittleEndian.PutUint32(payload, uint32(len(q.name)))
		copy(payload[4:], q.name)
		copy(payload[4+len(q.name):], q.src)
		appends = append(appends, tr.time(root, replayOp+int64(i), "wal", "Append", func() { _, err = log.Append(walRecQuery, payload) }))
		if err != nil {
			return nil, nil, err
		}
	}
	// Checkpoints follow the daemon's cadence, counted from where the
	// daemon's own counter stood when the loop began, and stream the
	// compiled snapshot into the checkpoint file as the daemon does.
	var ckpts []time.Duration
	checkpoint := func(parent, op int64, cdb *engine.CompiledDB) error {
		var err error
		ckpts = append(ckpts, tr.time(parent, op, "wal", "WriteCheckpoint", func() {
			err = log.WriteCheckpoint(log.NextLSN()-1, 2, cdb.WriteSnapshot)
		}))
		return err
	}
	every := checkpointEvery(r.flags)
	sinceCkpt := rec.ckptSince
	flushes := groupByVersion(rec)
	var apply, rebind, diff, encDelta, encNote, sse []time.Duration
	for _, f := range flushes {
		op := replayOp + int64(f.version)
		fl := tr.open(root, op, "live", "flush")
		delta := &storage.Delta{Insert: map[string][][]string{}}
		for _, i := range f.ops {
			for rel, ts := range rec.submits[i].delta.Insert {
				delta.Insert[rel] = append(delta.Insert[rel], ts...)
			}
		}
		var enc []byte
		encDelta = append(encDelta, tr.time(fl, op, "storage", "EncodeDelta", func() { enc = storage.EncodeDelta(delta) }))
		payload := binary.LittleEndian.AppendUint64(nil, f.version)
		payload = append(payload, enc...)
		appends = append(appends, tr.time(fl, op, "wal", "Append", func() { _, err = log.Append(walRecDelta, payload) }))
		if err != nil {
			return nil, nil, err
		}
		var next *engine.CompiledDB
		apply = append(apply, tr.time(fl, op, "engine", "Apply", func() { next, err = cdb.Apply(ctx, delta) }))
		if err != nil {
			return nil, nil, fmt.Errorf("replay Apply: %w", err)
		}
		cdb = next
		for q, rows := range f.rows {
			var nb *engine.BoundQuery
			rebind = append(rebind, tr.time(fl, op, "engine", "Rebind", func() { nb, err = bound[q].Rebind(ctx, cdb) }))
			if err != nil {
				return nil, nil, fmt.Errorf("replay Rebind: %w", err)
			}
			var added, removed *engine.Relation
			diff = append(diff, tr.time(fl, op, "engine", "DiffFrom", func() { added, removed, err = nb.DiffFrom(ctx, bound[q]) }))
			if err != nil {
				return nil, nil, fmt.Errorf("replay DiffFrom: %w", err)
			}
			if added.Len() != len(rows) || removed.Len() != 0 {
				r.problem("replay of version %d: diff +%d -%d, the streams saw +%d", f.version, added.Len(), removed.Len(), len(rows))
			}
			bound[q] = nb
			name := rec.queries[q].name
			n := notification(name, f.version, counts[q], rows)
			counts[q] += int64(len(rows))
			// One NOTIFY encode per stream, as the wire server does today; one
			// span covers them all and the per-call cost is its mean.
			if k := rec.streams[name]; k > 0 {
				d := tr.time(fl, op, "wire", "EncodeNotification", func() {
					for range k {
						wire.EncodeNotification(&n)
					}
				})
				encNote = append(encNote, d/time.Duration(k))
			}
			sse = append(sse, tr.time(fl, op, "d2cqd", "json.Marshal", func() { _, err = json.Marshal(n) }))
		}
		if sinceCkpt++; sinceCkpt >= every {
			if err := checkpoint(fl, op, cdb); err != nil {
				return nil, nil, err
			}
			sinceCkpt = 0
		}
		tr.close(fl)
	}
	putP50P99(m, "engine.apply", apply)
	putP50P99(m, "engine.rebind", rebind)
	putP50P99(m, "engine.diff", diff)
	putP50P99(m, "wal.append", appends)
	m["storage.encode_delta_us"] = metric{summarize(encDelta).P50 * 1000, "us"}
	m["wire.encode_notification_us"] = metric{summarize(encNote).P50 * 1000, "us"}
	m["d2cqd.sse_encode_us"] = metric{summarize(sse).P50 * 1000, "us"}

	// The end-of-run database: one snapshot encode into memory. Checkpoints
	// of it top the log up to three, because only from the third on does a
	// checkpoint also prune the oldest one and the segments it covered, as
	// the daemon's do in steady state; wal.checkpoint_ms is the median of
	// those.
	var snap bytes.Buffer
	snapDur := tr.time(root, replayOp, "storage", "EncodeDB", func() { err = cdb.WriteSnapshot(&snap) })
	if err != nil {
		return nil, nil, err
	}
	tuples := cdb.Stats().Tuples
	for len(ckpts) < 3 {
		if err := checkpoint(root, replayOp, cdb); err != nil {
			return nil, nil, err
		}
	}
	ckptDur := median(ckpts[2:])
	m["storage.snapshot_ms"] = metric{ms(snapDur), "ms"}
	m["storage.snapshot_bytes_per_tuple"] = metric{float64(snap.Len()) / float64(max(tuples, 1)), "B"}
	m["wal.checkpoint_ms"] = metric{ms(ckptDur), "ms"}

	if err := b.replayLive(ctx, r, tr, root, flushes, m); err != nil {
		return nil, nil, err
	}
	tr.close(root)
	statsMetrics(r, m)

	spans := tr.all()
	self := layerSelf(spans[mark:])
	for _, layer := range []string{"decomp", "engine", "storage", "wal", "live", "wire", "d2cqd"} {
		m[layer+".self_ms"] = metric{ms(self[layer]), "ms"}
	}
	return m, spans, nil
}

func openReplayLog(dir string) (*wal.Log, error) {
	fsb, err := wal.NewFS(dir)
	if err != nil {
		return nil, err
	}
	return wal.Open(fsb, wal.Options{Mode: wal.SyncAlways})
}

// flushBatch is one replayed flush: the submits one notification version
// delivered, and the rows each query gained.
type flushBatch struct {
	version uint64
	ops     []int
	rows    map[int][][]string // query → added rows
}

func groupByVersion(rec *recording) []flushBatch {
	if rec.tracker == nil {
		return nil
	}
	byVersion := map[uint64]*flushBatch{}
	for i, s := range rec.submits {
		v := rec.tracker.version[i].Load()
		if s.client < 0 || v == 0 {
			continue
		}
		f := byVersion[v]
		if f == nil {
			f = &flushBatch{version: v, rows: map[int][][]string{}}
			byVersion[v] = f
		}
		f.ops = append(f.ops, i)
		x, y, z := submitRow(i)
		f.rows[s.query] = append(f.rows[s.query], []string{x, y, z})
	}
	out := make([]flushBatch, 0, len(byVersion))
	for _, f := range byVersion {
		out = append(out, *f)
	}
	slices.SortFunc(out, func(a, b flushBatch) int { return cmp.Compare(a.version, b.version) })
	return out
}

// liveSample bounds how many registrations the live-store replay registers
// (register-corpus has over a thousand; a sample prices Solutions).
const liveSample = 64

// replayLive drives a live.Store with the pass's submits and reads, timing
// each call, so the client spans can be split into the store's share and
// the daemon's own (protocol, encoding, network) share.
func (b *bench) replayLive(ctx context.Context, r *passResult, tr *tracer, root int64, flushes []flushBatch, m map[string]metric) error {
	rec := r.rec
	st, err := live.NewStore(ctx, engine.NewEngine(), rec.preload, live.Config{MaxBatch: 1 << 30, MaxLatency: time.Hour})
	if err != nil {
		return err
	}
	defer st.Close()
	n := min(len(rec.queries), liveSample)
	for _, q := range rec.queries[:n] {
		if err := st.Register(ctx, q.name, q.q); err != nil {
			return fmt.Errorf("replay Register %s: %w", q.name, err)
		}
	}
	var ackSelf, readSelf, solutions []time.Duration
	for _, f := range flushes {
		for _, i := range f.ops {
			s := rec.submits[i]
			d := tr.time(root, replayOp+int64(i), "live", "Submit", func() { err = st.Submit(s.delta) })
			if err != nil {
				return fmt.Errorf("replay Submit: %w", err)
			}
			ackSelf = append(ackSelf, s.client-d)
		}
		if err := st.Flush(ctx); err != nil {
			return err
		}
	}
	read := func(op int64, name string, limit int) (time.Duration, error) {
		d := tr.time(root, op, "live", "Solutions", func() { _, _, err = st.Solutions(ctx, name, limit) })
		solutions = append(solutions, d)
		return d, err
	}
	for i, rd := range rec.reads {
		d, err := read(replayOp+int64(i), rec.queries[rd.query].name, rd.limit)
		if err != nil {
			return fmt.Errorf("replay Solutions: %w", err)
		}
		readSelf = append(readSelf, rd.client-d)
	}
	if len(rec.reads) == 0 {
		for i, q := range rec.queries[:n] {
			if _, err := read(replayOp+int64(i), q.name, 16); err != nil {
				return fmt.Errorf("replay Solutions: %w", err)
			}
		}
	}
	m["live.solutions_ms"] = metric{summarize(solutions).P50, "ms"}
	m["d2cqd.ack_self_ms"] = metric{summarize(ackSelf).P50, "ms"}
	m["d2cqd.read_self_ms"] = metric{summarize(readSelf).P50, "ms"}
	return nil
}

// statsMetrics derives counts, ratios and per-flush means from the daemon's
// stats before and after the traced loop.
func statsMetrics(r *passResult, m map[string]metric) {
	a, z := r.before.Store, r.after.Store
	ea, ez := a.Engine, z.Engine
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	hits, misses := ez.Cache.Hits-ea.Cache.Hits, ez.Cache.Misses-ea.Cache.Misses
	m["decomp.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["decomp.cache_evictions"] = metric{float64(ez.Cache.Evictions - ea.Cache.Evictions), "count"}
	fast, scan := ez.AtomDeltaFast-ea.AtomDeltaFast, ez.AtomDeltaScan-ea.AtomDeltaScan
	m["engine.atom_delta_fast_ratio"] = metric{ratio(fast, fast+scan), "ratio"}
	joins, rebuilds := ez.NodeDeltaJoins-ea.NodeDeltaJoins, ez.NodeRebuilds-ea.NodeRebuilds
	m["engine.node_delta_ratio"] = metric{ratio(joins, joins+rebuilds), "ratio"}
	dfast, oracle := ez.DiffsFast-ea.DiffsFast, ez.DiffsOracle-ea.DiffsOracle
	m["engine.diff_fast_ratio"] = metric{ratio(dfast, dfast+oracle), "ratio"}
	flushes := z.Flushes - a.Flushes
	m["engine.rebinds_per_flush"] = metric{ratio(ez.Rebinds-ea.Rebinds, flushes), "count"}
	m["storage.db_tuples"] = metric{float64(z.DB.Tuples), "count"}
	perFlushMS := func(after, before uint64) float64 { return ratio(after-before, flushes) / 1e6 }
	m["live.flushes"] = metric{float64(flushes), "count"}
	m["live.tuples_per_flush"] = metric{ratio(z.FlushedTuples-a.FlushedTuples, flushes), "count"}
	m["live.stage_ms"] = metric{perFlushMS(z.Flush.StageNs, a.Flush.StageNs), "ms"}
	m["live.wal_ms"] = metric{perFlushMS(z.Flush.WalNs, a.Flush.WalNs), "ms"}
	m["live.commit_ms"] = metric{perFlushMS(z.Flush.CommitNs, a.Flush.CommitNs), "ms"}
	m["live.lock_hold_ms"] = metric{perFlushMS(z.Flush.LockHoldNs, a.Flush.LockHoldNs), "ms"}
	m["live.staged_queries_per_flush"] = metric{ratio(z.Flush.StagedQueries-a.Flush.StagedQueries, flushes), "count"}
	m["live.notifications"] = metric{float64(z.Notifications - a.Notifications), "count"}
	m["live.dropped"] = metric{float64(z.Dropped - a.Dropped), "count"}
	m["live.flush_errors"] = metric{float64(z.FlushErrors - a.FlushErrors), "count"}
	m["wire.frames_out_per_flush"] = metric{ratio(r.after.Wire.FramesOut-r.before.Wire.FramesOut, flushes), "count"}
	m["wire.notifies"] = metric{float64(r.after.Wire.Notifies - r.before.Wire.Notifies), "count"}
	var since, logBytes float64
	if a.Durability != nil && z.Durability != nil {
		since = float64(a.Durability.FlushesSinceCheckpoint)
		logBytes = float64(z.Durability.LogBytes)
	}
	m["wal.checkpoints"] = metric{float64(int(since+float64(flushes)) / checkpointEvery(r.flags)), "count"}
	m["wal.log_bytes_per_tuple"] = metric{logBytes / float64(max(z.DB.Tuples, 1)), "B"}
	m["wal.replay_ms"] = metric{ms(r.walReplay), "ms"}
	m["wal.replay_records"] = metric{float64(r.replayRecs), "count"}
}

// registerTail returns the slowest 1% of a pass's REGISTER replies (those
// at or above the p99 reply) and the largest width among its registrations.
func registerTail(rec *recording) (tail []recQuery, maxW int) {
	var replies []time.Duration
	for _, q := range rec.queries {
		if q.reply >= 0 {
			replies = append(replies, q.reply)
			maxW = max(maxW, rec.widths[decomp.CacheKey(q.q.Hypergraph())])
		}
	}
	if len(replies) == 0 {
		return nil, 0
	}
	slices.Sort(replies)
	cut := replies[rank(len(replies), 0.99)]
	for _, q := range rec.queries {
		if q.reply >= cut {
			tail = append(tail, q)
		}
	}
	return tail, maxW
}

// widestTailShare is the share of the slowest 1% of REGISTER replies that
// were decomposition-cache misses on a shape of the corpus's largest width.
// On the corpus that width is 4, shared by the 4×4 and 4×5 jigsaws with a
// few cheaper duals of complete graphs and partial 4-trees.
func widestTailShare(rec *recording) float64 {
	tail, maxW := registerTail(rec)
	widest := 0
	for _, q := range tail {
		if q.fresh && rec.widths[decomp.CacheKey(q.q.Hypergraph())] == maxW {
			widest++
		}
	}
	return float64(widest) / float64(max(len(tail), 1))
}

// tailMix describes the slowest 1% of REGISTER replies by shape family,
// width and whether the registration missed the decomposition cache.
func tailMix(rec *recording) string {
	tail, _ := registerTail(rec)
	count := map[string]int{}
	for _, q := range tail {
		kind := "hit"
		if q.fresh {
			kind = "miss"
		}
		count[fmt.Sprintf("%s/w%d/%s", q.family, rec.widths[decomp.CacheKey(q.q.Hypergraph())], kind)]++
	}
	keys := slices.Sorted(maps.Keys(count))
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, count[k])
	}
	return fmt.Sprintf("n=%d %s", len(tail), strings.Join(parts, " "))
}

func putP50P99(m map[string]metric, name string, ds []time.Duration) {
	s := summarize(ds)
	m[name+"_p50_ms"] = metric{s.P50, "ms"}
	m[name+"_p99_ms"] = metric{s.P99, "ms"}
}

func maxMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return ms(slices.Max(ds))
}
