package live

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
)

// durableConfig mirrors manualConfig for durable stores: flushes only when
// the test says so, no mid-run checkpoint cadence (Open and Close still write
// their own), ample history and buffers.
func durableConfig(backend wal.Backend) DurableConfig {
	return DurableConfig{
		Config:          Config{MaxBatch: 1 << 30, MaxLatency: time.Hour, Buffer: 256, History: 256},
		Backend:         backend,
		SyncMode:        wal.SyncOff,
		CheckpointEvery: 1 << 30,
	}
}

func mustQuery(t *testing.T, src string) cq.Query {
	t.Helper()
	q, err := cq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// normNotification makes notifications comparable across runs: the diff
// lists are order-normalised (they are sets).
func normNotification(n Notification) Notification {
	n.Lagged = 0
	sortRows := func(rows [][]string) [][]string {
		out := append([][]string(nil), rows...)
		sort.Slice(out, func(i, j int) bool {
			return storageKey(out[i]) < storageKey(out[j])
		})
		return out
	}
	n.Added = sortRows(n.Added)
	n.Removed = sortRows(n.Removed)
	return n
}

func storageKey(tuple []string) string {
	k := ""
	for _, v := range tuple {
		k += v + "\x00"
	}
	return k
}

func drain(sub *Subscription) []Notification {
	var out []Notification
	for {
		n, ok := sub.TryNext()
		if !ok {
			return out
		}
		out = append(out, normNotification(n))
	}
}

// ckptState strips a checkpoint blob down to its logical state: the bytes
// from the version field through the snapshot, excluding the covered LSN
// (which legitimately differs between a straight run and a crashed-and-
// recovered one) and the trailing CRC.
func ckptState(t *testing.T, backend wal.Backend) []byte {
	t.Helper()
	lsn, ok, err := wal.LatestCheckpoint(backend)
	if err != nil || !ok {
		t.Fatalf("no final checkpoint: %v", err)
	}
	rc, err := backend.OpenCheckpoint(lsn)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := blob[:len(blob)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(blob[len(blob)-4:]) {
		t.Fatal("final checkpoint fails its CRC")
	}
	return body[len(ckptMagic)+1+8:] // skip magic, format, LSN; keep version onward
}

// TestDurableCrashRecoveryDifferential is the crash-at-every-boundary
// differential: one reference store runs a recorded random stream of
// registrations and flushed batches to completion; for every flush boundary
// k, a clone of the backend frozen at that instant (what a SIGKILL would
// leave behind) is reopened, checked against the reference's state at
// version k+1, then driven through the remainder of the stream. The final
// state must be identical — query counts, store version, and the logical
// bytes of the final checkpoint — and a watcher reconnecting after the crash
// with its pre-crash cursor must receive exactly the reference's remaining
// notifications: none duplicated, none missing.
func TestDurableCrashRecoveryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sh := watchShapes[0] // path: R,S,T (+Zed noise), all binary
	relNames := []string{"R", "S", "T", "Zed"}
	q1 := mustQuery(t, sh.query)                 // registered up front
	q2 := mustQuery(t, "R(x,y), S(x,z), T(x,w)") // star over the same schema, registered mid-stream
	const nFlush = 18
	const q2At = 5 // register q2 before flush index 5

	// Record the stream so every crashed run replays the identical input.
	script := make([][]*storage.Delta, nFlush)
	for i := range script {
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			script[i] = append(script[i], genDelta(rng, sh, relNames))
		}
	}

	eng := engine.NewEngine() // shared: recovery cost stays prepare-cache-warm
	ctx := context.Background()

	// Reference run, cloning the backend at every flush boundary.
	refBackend := wal.NewMem()
	ref, err := Open(ctx, eng, durableConfig(refBackend))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Register(ctx, "path", q1); err != nil {
		t.Fatal(err)
	}
	refSub, err := ref.Watch("path")
	if err != nil {
		t.Fatal(err)
	}
	clones := make([]*wal.Mem, nFlush+1)
	counts := make([]map[string]int64, nFlush+1) // per boundary: query -> count
	snapCounts := func() map[string]int64 {
		out := map[string]int64{}
		for _, qi := range ref.Queries() {
			out[qi.Name] = qi.Count
		}
		return out
	}
	clones[0] = refBackend.Clone()
	counts[0] = snapCounts()
	for i := 0; i < nFlush; i++ {
		if i == q2At {
			if err := ref.Register(ctx, "star", q2); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range script[i] {
			if err := ref.Submit(d.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		clones[i+1] = refBackend.Clone()
		counts[i+1] = snapCounts()
	}
	refNotifs := drain(refSub)
	refFinalVersion := ref.Version()
	if refFinalVersion != nFlush+1 {
		t.Fatalf("reference version %d, want %d", refFinalVersion, nFlush+1)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	refFinal := ckptState(t, refBackend)
	if len(refNotifs) == 0 {
		t.Fatal("reference run produced no notifications; the stream is too tame to test anything")
	}

	for k := 0; k <= nFlush; k++ {
		s, err := Open(ctx, eng, durableConfig(clones[k]))
		if err != nil {
			t.Fatalf("crash at boundary %d: reopen: %v", k, err)
		}
		if got, want := s.Version(), uint64(k+1); got != want {
			t.Fatalf("crash at boundary %d: recovered version %d, want %d", k, got, want)
		}
		for name, want := range counts[k] {
			got, _, err := s.Count(name)
			if err != nil {
				t.Fatalf("crash at boundary %d: %v", k, err)
			}
			if got != want {
				t.Fatalf("crash at boundary %d: %s count %d, want %d", k, name, got, want)
			}
		}
		// Reconnect the pre-crash watcher at its exact cursor: everything it
		// already saw has Version <= k+1, so it must now receive precisely
		// the reference notifications beyond that — the replayed ring
		// satisfies any in-window backlog, the live stream the rest.
		sub, resumed, err := s.WatchFrom("path", uint64(k+1))
		if err != nil {
			t.Fatalf("crash at boundary %d: WatchFrom: %v", k, err)
		}
		if !resumed {
			t.Fatalf("crash at boundary %d: cursor %d not resumable (floor should cover the whole run)", k, k+1)
		}
		for i := k; i < nFlush; i++ {
			if i == q2At {
				if err := s.Register(ctx, "star", q2); err != nil {
					t.Fatalf("crash at boundary %d: re-register star: %v", k, err)
				}
			}
			for _, d := range script[i] {
				if err := s.Submit(d.Clone()); err != nil {
					t.Fatalf("crash at boundary %d flush %d: %v", k, i, err)
				}
			}
			if err := s.Flush(ctx); err != nil {
				t.Fatalf("crash at boundary %d flush %d: %v", k, i, err)
			}
		}
		if got := s.Version(); got != refFinalVersion {
			t.Fatalf("crash at boundary %d: final version %d, want %d", k, got, refFinalVersion)
		}
		for name, want := range counts[nFlush] {
			got, _, _ := s.Count(name)
			if got != want {
				t.Fatalf("crash at boundary %d: final %s count %d, want %d", k, name, got, want)
			}
		}
		got := drain(sub)
		var want []Notification
		for _, n := range refNotifs {
			if n.Version > uint64(k+1) {
				want = append(want, n)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("crash at boundary %d: resumed watcher saw %d notifications %+v\nwant %d: %+v",
				k, len(got), got, len(want), want)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("crash at boundary %d: close: %v", k, err)
		}
		if final := ckptState(t, clones[k]); !reflect.DeepEqual(final, refFinal) {
			t.Fatalf("crash at boundary %d: final checkpoint state diverges from the straight run (%d vs %d bytes)",
				k, len(final), len(refFinal))
		}
	}
}

// TestDurableTornTail cuts the crash image mid-record at arbitrary byte
// offsets: Open must always succeed, recover a clean prefix of the flush
// history (version between the checkpoint and the full run), and keep
// serving — the counts must match a pristine store fed exactly the surviving
// prefix of batches.
func TestDurableTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sh := watchShapes[0]
	relNames := []string{"R", "S", "T"}
	q1 := mustQuery(t, sh.query)
	const nFlush = 8

	eng := engine.NewEngine()
	ctx := context.Background()
	backend := wal.NewMem()
	s, err := Open(ctx, eng, durableConfig(backend))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ctx, "path", q1); err != nil {
		t.Fatal(err)
	}
	batches := make([]*storage.Delta, nFlush)
	for i := range batches {
		batches[i] = genDelta(rng, sh, relNames)
		if err := s.Submit(batches[i].Clone()); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	img := backend.Clone()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := img.ListSegments()
	last := segs[len(segs)-1]
	full, _ := img.SegmentSize(last)
	for trial := 0; trial < 12; trial++ {
		torn := img.Clone()
		cut := int64(rng.Intn(int(full)))
		if err := torn.TruncateSegment(last, int(cut)); err != nil {
			t.Fatal(err)
		}

		re, err := Open(ctx, eng, durableConfig(torn))
		if err != nil {
			t.Fatalf("cut at %d/%d: open: %v", cut, full, err)
		}
		v := re.Version()
		if v < 1 || v > nFlush+1 {
			t.Fatalf("cut at %d: recovered version %d out of range", cut, v)
		}
		// A pristine store fed the surviving prefix must agree exactly.
		want, err := NewStore(ctx, eng, cq.Database{}, manualConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Register(ctx, "path", q1); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < v-1; i++ {
			if err := want.Submit(batches[i].Clone()); err != nil {
				t.Fatal(err)
			}
			if err := want.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		gotCount, _, _ := re.Count("path")
		wantCount, _, _ := want.Count("path")
		if gotCount != wantCount {
			t.Fatalf("cut at %d: recovered count %d at version %d, pristine prefix says %d",
				cut, gotCount, v, wantCount)
		}
		want.Close()
		re.Close()
	}
}

// TestWatchFromWindow pins the cursor-window semantics on a plain in-memory
// store with a tiny history ring: in-window cursors resume with exactly the
// missed notifications, the floor advances as the ring evicts, out-of-window
// and future cursors report unresumable, and a store without history never
// resumes.
func TestWatchFromWindow(t *testing.T) {
	ctx := context.Background()
	cfg := manualConfig(64)
	cfg.History = 3
	s, err := NewStore(ctx, nil, cq.Database{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register(ctx, "q", mustQuery(t, "R(x,y)")); err != nil {
		t.Fatal(err)
	}
	// 6 changing flushes: versions 2..7, each adding one tuple.
	var all []Notification
	for i := 0; i < 6; i++ {
		if err := s.Submit(storage.NewDelta().Add("R", "a", string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		all = append(all, Notification{Version: uint64(i + 2)})
	}
	if got := s.Version(); got != 7 {
		t.Fatalf("version = %d, want 7", got)
	}
	cases := []struct {
		from    uint64
		resumed bool
		missed  int
	}{
		{from: 7, resumed: true, missed: 0}, // current: nothing missed
		{from: 6, resumed: true, missed: 1}, // one behind
		{from: 4, resumed: true, missed: 3}, // exactly the whole ring
		{from: 3, resumed: false},           // evicted: floor passed it
		{from: 1, resumed: false},           // ancient
		{from: 42, resumed: false},          // future cursor: bogus
	}
	for _, tc := range cases {
		sub, resumed, err := s.WatchFrom("q", tc.from)
		if err != nil {
			t.Fatal(err)
		}
		if resumed != tc.resumed {
			t.Fatalf("WatchFrom(%d): resumed=%v, want %v", tc.from, resumed, tc.resumed)
		}
		got := drain(sub)
		if !tc.resumed {
			if len(got) != 0 {
				t.Fatalf("WatchFrom(%d): unresumable cursor still got %d queued notifications", tc.from, len(got))
			}
			sub.Cancel()
			continue
		}
		if len(got) != tc.missed {
			t.Fatalf("WatchFrom(%d): %d queued notifications, want %d", tc.from, len(got), tc.missed)
		}
		for i, n := range got {
			if want := tc.from + uint64(i) + 1; n.Version != want {
				t.Fatalf("WatchFrom(%d): queued[%d].Version = %d, want %d (no gaps, no dupes)", tc.from, i, n.Version, want)
			}
		}
		sub.Cancel()
	}
	if len(all) != 6 {
		t.Fatalf("expected 6 change versions, got %d", len(all))
	}

	// History disabled: every cursor is unresumable, even the current one.
	s2, err := NewStore(ctx, nil, cq.Database{}, manualConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Register(ctx, "q", mustQuery(t, "R(x,y)")); err != nil {
		t.Fatal(err)
	}
	_, resumed, err := s2.WatchFrom("q", s2.Version())
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("WatchFrom resumed on a store without history")
	}
}

// faultyBackend is a wal.Mem whose segment writers fail one Sync on demand.
type faultyBackend struct {
	*wal.Mem
	failNextSync atomic.Bool
}

func (b *faultyBackend) CreateSegment(start uint64) (wal.SegmentWriter, error) {
	w, err := b.Mem.CreateSegment(start)
	if err != nil {
		return nil, err
	}
	return faultySegment{SegmentWriter: w, b: b}, nil
}

type faultySegment struct {
	wal.SegmentWriter
	b *faultyBackend
}

func (s faultySegment) Sync() error {
	if s.b.failNextSync.CompareAndSwap(true, false) {
		return errors.New("injected fsync failure")
	}
	return s.SegmentWriter.Sync()
}

// TestFailedFsyncPoisonsLog: one failed fsync under SyncAlways makes the
// store fail-stop. The flush that hit it and every later flush fail with
// wal.ErrPoisoned, the version stops advancing, the error surfaces in the
// durability stats, and the log never holds two records for one version —
// re-logging the re-queued batch after the failure would have written one.
func TestFailedFsyncPoisonsLog(t *testing.T) {
	ctx := context.Background()
	backend := &faultyBackend{Mem: wal.NewMem()}
	cfg := durableConfig(backend)
	cfg.SyncMode = wal.SyncAlways
	s, err := Open(ctx, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ctx, "paths", mustQuery(t, "R(x,y), S(y,z)")); err != nil {
		t.Fatal(err)
	}
	submit := func(k int) {
		t.Helper()
		d := storage.NewDelta().Add("R", fmt.Sprint("a", k), fmt.Sprint("b", k)).Add("S", fmt.Sprint("b", k), "c")
		if err := s.Submit(d); err != nil {
			t.Fatal(err)
		}
	}
	submit(1)
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	acked := s.Version()

	backend.failNextSync.Store(true)
	submit(2)
	if err := s.Flush(ctx); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("flush over a failed fsync = %v, want wal.ErrPoisoned", err)
	}
	// The batch was re-queued; retrying it, and flushing more, must not log
	// anything past the failure.
	for k := 3; k <= 4; k++ {
		if err := s.Flush(ctx); !errors.Is(err, wal.ErrPoisoned) {
			t.Fatalf("flush %d after the failure = %v, want wal.ErrPoisoned", k, err)
		}
		submit(k)
	}
	if err := s.Register(ctx, "more", mustQuery(t, "R(x,y)")); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("register after the failure = %v, want wal.ErrPoisoned", err)
	}
	if v := s.Version(); v != acked {
		t.Fatalf("version %d after the failure, want %d", v, acked)
	}
	st := s.Stats()
	if st.Durability == nil || !strings.Contains(st.Durability.LastError, "injected fsync failure") {
		t.Fatalf("durability stats do not report the fsync failure: %+v", st.Durability)
	}
	if st.FlushErrors < 3 {
		t.Fatalf("flush errors = %d, want >= 3", st.FlushErrors)
	}
	s.Close()

	seen := map[uint64]bool{}
	if err := wal.Replay(backend.Mem, 0, func(r wal.Record) error {
		if r.Type != recDelta {
			return nil
		}
		v, _, err := decodeDeltaRecord(r.Payload)
		if err != nil {
			return err
		}
		if seen[v] {
			t.Errorf("LSN %d logs version %d a second time", r.LSN, v)
		}
		seen[v] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !seen[acked] {
		t.Fatalf("acknowledged version %d missing from the log", acked)
	}
}
