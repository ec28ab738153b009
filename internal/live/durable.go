package live

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
)

// WAL record types. Unknown types are skipped on replay, so later formats can
// add record kinds without breaking older readers.
const (
	recDelta byte = 1 // u64 post-flush version (LE) + storage.EncodeDelta payload
	recQuery byte = 2 // u32 name length (LE) + name + canonical query text
)

// DurableConfig configures a durable Store (Open). The embedded Config keeps
// its NewStore semantics, except History defaults to 64 when unset — a
// durable store without a resume window would make Last-Event-ID reconnects
// pointless.
type DurableConfig struct {
	Config
	// Backend supplies log segments and checkpoint blobs. Required;
	// wal.NewFS for a data directory, wal.NewMem for tests.
	Backend wal.Backend
	// SyncMode is the fsync policy for log appends (default wal.SyncAlways).
	SyncMode wal.SyncMode
	// SyncInterval is the flush period under wal.SyncInterval (default 100ms).
	SyncInterval time.Duration
	// SegmentBytes rotates log segments at this size (default 4 MiB).
	SegmentBytes int64
	// CheckpointEvery writes a snapshot checkpoint after this many flushes
	// (default 64), bounding the log suffix the next Open must replay.
	CheckpointEvery int
	// KeepCheckpoints retains this many checkpoint generations (default 2):
	// one corrupt newest checkpoint then falls back to the previous one plus
	// a longer replay instead of failing recovery.
	KeepCheckpoints int
}

const (
	defaultHistory         = 64
	defaultCheckpointEvery = 64
	defaultKeepCheckpoints = 2
)

func (c DurableConfig) withDefaults() DurableConfig {
	c.Config = c.Config.withDefaults()
	if c.History == 0 {
		c.History = defaultHistory
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = defaultCheckpointEvery
	}
	if c.KeepCheckpoints <= 0 {
		c.KeepCheckpoints = defaultKeepCheckpoints
	}
	return c
}

// durability is the Store's attachment to its write-ahead log. The log and
// the cadence knobs are fixed at Open; the wal.Log has its own lock and
// never calls back into the store. The mutable counters carry their own
// mutex (cmu) because they are written by the flush pipeline — which holds
// flushMu, not Store.mu — and read by Stats, which holds Store.mu; cmu is a
// leaf lock acquired after either.
type durability struct {
	log             *wal.Log
	checkpointEvery int
	keep            int
	mode            wal.SyncMode

	cmu             sync.Mutex // guards the counters below
	sinceCkpt       int
	lastCkptLSN     uint64
	lastCkptVersion uint64
	replayed        uint64
	lastError       string
}

// DurabilityStats is the durability section of Stats.
type DurabilityStats struct {
	SyncMode               string `json:"sync_mode"`
	NextLSN                uint64 `json:"next_lsn"`
	Segments               int    `json:"segments"`
	LogBytes               int64  `json:"log_bytes"`
	Checkpoints            int    `json:"checkpoints"`
	LastCheckpointLSN      uint64 `json:"last_checkpoint_lsn"`
	LastCheckpointVersion  uint64 `json:"last_checkpoint_version"`
	FlushesSinceCheckpoint int    `json:"flushes_since_checkpoint"`
	// ReplayedRecords is how many log records the last Open had to replay —
	// the recovery cost the checkpoint cadence is there to bound.
	ReplayedRecords uint64 `json:"replayed_records"`
	LastError       string `json:"last_error,omitempty"`
}

func (d *durability) stats() *DurabilityStats {
	d.cmu.Lock()
	out := &DurabilityStats{
		SyncMode:               d.mode.String(),
		LastCheckpointLSN:      d.lastCkptLSN,
		LastCheckpointVersion:  d.lastCkptVersion,
		FlushesSinceCheckpoint: d.sinceCkpt,
		ReplayedRecords:        d.replayed,
		LastError:              d.lastError,
	}
	d.cmu.Unlock()
	if st, err := d.log.Stats(); err == nil {
		out.NextLSN = st.NextLSN
		out.Segments = st.Segments
		out.LogBytes = st.LogBytes
		out.Checkpoints = st.Checkpoints
	} else {
		out.LastError = err.Error()
	}
	return out
}

// appendDelta logs one staged batch under its post-flush version.
func (d *durability) appendDelta(version uint64, batch *storage.Delta) error {
	enc := storage.EncodeDelta(batch)
	payload := make([]byte, 8+len(enc))
	binary.LittleEndian.PutUint64(payload, version)
	copy(payload[8:], enc)
	return d.appendRecord(recDelta, payload)
}

func decodeDeltaRecord(payload []byte) (uint64, *storage.Delta, error) {
	if len(payload) < 8 {
		return 0, nil, errors.New("live: short delta record")
	}
	version := binary.LittleEndian.Uint64(payload)
	delta, err := storage.DecodeDelta(payload[8:])
	if err != nil {
		return 0, nil, err
	}
	return version, delta, nil
}

// appendQuery logs one successful registration.
func (d *durability) appendQuery(name, src string) error {
	payload := make([]byte, 4+len(name)+len(src))
	binary.LittleEndian.PutUint32(payload, uint32(len(name)))
	copy(payload[4:], name)
	copy(payload[4+len(name):], src)
	return d.appendRecord(recQuery, payload)
}

// appendRecord writes one record, surfacing a failure in the durability stats as
// well as to the caller. A failed write or fsync poisons the log
// (wal.ErrPoisoned), so every later append fails the same way and the store
// stops committing instead of logging a batch twice.
func (d *durability) appendRecord(typ byte, payload []byte) error {
	if _, err := d.log.Append(typ, payload); err != nil {
		d.setError(err)
		return err
	}
	return nil
}

// setError records err as the durability section's last error.
func (d *durability) setError(err error) {
	d.cmu.Lock()
	d.lastError = err.Error()
	d.cmu.Unlock()
}

func decodeQueryRecord(payload []byte) (string, string, error) {
	if len(payload) < 4 {
		return "", "", errors.New("live: short query record")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if n < 0 || 4+n > len(payload) {
		return "", "", errors.New("live: query record name overruns payload")
	}
	return string(payload[4 : 4+n]), string(payload[4+n:]), nil
}

// maybeCheckpoint advances the flush counter and writes a checkpoint when
// the cadence is due. Called with Store.flushMu held (NOT mu — the snapshot
// encode is the expensive part and must not block submitters). Checkpoint
// failures never fail the flush that triggered them — the log still has
// everything — but they are surfaced in the durability stats.
func (d *durability) maybeCheckpoint(s *Store) {
	d.cmu.Lock()
	d.sinceCkpt++
	due := d.sinceCkpt >= d.checkpointEvery
	d.cmu.Unlock()
	if !due {
		return
	}
	if err := d.checkpoint(s); err != nil {
		d.setError(err)
	}
}

// checkpoint snapshots the current store state as a checkpoint covering
// every log record appended so far, then lets the log prune old checkpoints
// and fully-covered segments. Called with Store.flushMu held: s.version,
// the registry shape and s.cdb are stable under it (they change only under
// flushMu+mu), so the whole encode runs without touching Store.mu.
func (d *durability) checkpoint(s *Store) error {
	lsn := d.log.NextLSN() - 1
	err := d.log.WriteCheckpoint(lsn, d.keep, func(w io.Writer) error {
		return writeCheckpoint(w, lsn, s.version, s.queries, s.cdb)
	})
	if err != nil {
		return err
	}
	d.cmu.Lock()
	d.sinceCkpt = 0
	d.lastCkptLSN = lsn
	d.lastCkptVersion = s.version
	d.cmu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Checkpoint blob codec

var ckptMagic = []byte("d2cqckpt")

const ckptFormat = 1

// crcWriter tracks the running CRC32 of everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func putU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func putU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func putString(w io.Writer, s string) error {
	if err := putU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// writeCheckpoint streams magic, format, covered LSN, store version, the
// registered queries (name + canonical text, sorted), the compiled snapshot,
// and a trailing CRC32 of everything before it.
func writeCheckpoint(w io.Writer, lsn, version uint64, queries map[string]*liveQuery, cdb *engine.CompiledDB) error {
	cw := &crcWriter{w: w}
	if _, err := cw.Write(ckptMagic); err != nil {
		return err
	}
	if _, err := cw.Write([]byte{ckptFormat}); err != nil {
		return err
	}
	if err := putU64(cw, lsn); err != nil {
		return err
	}
	if err := putU64(cw, version); err != nil {
		return err
	}
	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	sort.Strings(names)
	if err := putU32(cw, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := putString(cw, name); err != nil {
			return err
		}
		if err := putString(cw, queries[name].src); err != nil {
			return err
		}
	}
	if err := cdb.WriteSnapshot(cw); err != nil {
		return err
	}
	return putU32(w, cw.crc) // the CRC itself is outside the checksum
}

// checkpointState is a decoded checkpoint.
type checkpointState struct {
	lsn     uint64
	version uint64
	queries []ckptQuery
	cdb     *engine.CompiledDB
}

type ckptQuery struct{ name, src string }

// readCheckpoint loads and fully validates one checkpoint blob.
func readCheckpoint(backend wal.Backend, lsn uint64) (*checkpointState, error) {
	rc, err := backend.OpenCheckpoint(lsn)
	if err != nil {
		return nil, err
	}
	blob, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	if len(blob) < len(ckptMagic)+1+8+8+4+4 {
		return nil, errors.New("live: checkpoint too short")
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, errors.New("live: checkpoint CRC mismatch")
	}
	r := bytes.NewReader(body)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, ckptMagic) {
		return nil, errors.New("live: bad checkpoint magic")
	}
	var format [1]byte
	if _, err := io.ReadFull(r, format[:]); err != nil || format[0] != ckptFormat {
		return nil, fmt.Errorf("live: unsupported checkpoint format %d", format[0])
	}
	st := &checkpointState{}
	if st.lsn, err = getU64(r); err != nil {
		return nil, err
	}
	if st.version, err = getU64(r); err != nil {
		return nil, err
	}
	n, err := getU32(r)
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(r.Len()) { // each query needs at least its length prefixes
		return nil, errors.New("live: checkpoint query count overruns blob")
	}
	for i := uint32(0); i < n; i++ {
		name, err := getString(r)
		if err != nil {
			return nil, err
		}
		src, err := getString(r)
		if err != nil {
			return nil, err
		}
		st.queries = append(st.queries, ckptQuery{name: name, src: src})
	}
	if st.cdb, err = engine.ReadCompiledDB(r); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, errors.New("live: trailing bytes after checkpoint snapshot")
	}
	return st, nil
}

func getU32(r *bytes.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func getU64(r *bytes.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func getString(r *bytes.Reader) (string, error) {
	n, err := getU32(r)
	if err != nil {
		return "", err
	}
	if int64(n) > int64(r.Len()) {
		return "", errors.New("live: string length overruns blob")
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// ---------------------------------------------------------------------------
// Open: recovery

// Open creates a durable Store over cfg.Backend: it loads the newest readable
// checkpoint (falling back to older generations if one fails validation),
// replays the log suffix beyond it through the exact flush machinery, and
// resumes at the pre-crash snapshot, version, and resume rings. A fresh
// backend starts an empty store at version 1, like NewStore over an empty
// database. Every later flush is logged before it becomes observable, and a
// checkpoint is written every CheckpointEvery flushes and on Close.
func Open(ctx context.Context, eng *engine.Engine, cfg DurableConfig) (*Store, error) {
	if cfg.Backend == nil {
		return nil, errors.New("live: Open requires a wal.Backend")
	}
	cfg = cfg.withDefaults()
	if eng == nil {
		eng = engine.NewEngine()
	}

	// Newest readable checkpoint wins; a corrupt one falls back a generation
	// (the log still covers the gap — replay is just longer).
	ckpts, err := cfg.Backend.ListCheckpoints()
	if err != nil {
		return nil, err
	}
	var ck *checkpointState
	for i := len(ckpts) - 1; i >= 0 && ck == nil; i-- {
		c, err := readCheckpoint(cfg.Backend, ckpts[i])
		if err != nil {
			continue
		}
		ck = c
	}
	cdb := (*engine.CompiledDB)(nil)
	version, fromLSN := uint64(1), uint64(0)
	if ck != nil {
		cdb, version, fromLSN = ck.cdb, ck.version, ck.lsn
	} else {
		if cdb, err = eng.CompileDB(ctx, cq.Database{}); err != nil {
			return nil, err
		}
	}

	s := &Store{
		eng:      eng,
		cfg:      cfg.Config,
		cdb:      cdb,
		version:  version,
		queries:  map[string]*liveQuery{},
		relArity: map[string]int{},
		pending:  storage.NewCoalescer(),
		kick:     make(chan struct{}, 1),
		closeCh:  make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	s.timer = time.NewTimer(time.Hour)
	if !s.timer.Stop() {
		<-s.timer.C
	}
	for _, q := range ck.queriesOrNil() {
		parsed, err := cq.ParseQuery(q.src)
		if err != nil {
			return nil, fmt.Errorf("live: checkpoint query %q: %w", q.name, err)
		}
		if err := s.register(ctx, q.name, parsed, false); err != nil {
			return nil, fmt.Errorf("live: re-registering %q from checkpoint: %w", q.name, err)
		}
	}

	replayed, err := s.replayLog(ctx, cfg.Backend, fromLSN+1)
	if err != nil {
		return nil, err
	}

	log, err := wal.Open(cfg.Backend, wal.Options{
		SegmentBytes: cfg.SegmentBytes,
		Mode:         cfg.SyncMode,
		Interval:     cfg.SyncInterval,
	})
	if err != nil {
		return nil, err
	}
	s.dur = &durability{
		log:             log,
		checkpointEvery: cfg.CheckpointEvery,
		keep:            cfg.KeepCheckpoints,
		lastCkptLSN:     fromLSN,
		replayed:        replayed,
		mode:            cfg.SyncMode,
	}
	if ck != nil {
		s.dur.lastCkptVersion = ck.version
	}
	// Fold the recovered state into a fresh checkpoint right away when it
	// took any replay (or nothing was checkpointed yet): the next Open then
	// starts from here instead of repeating the work.
	if replayed > 0 || ck == nil {
		s.flushMu.Lock()
		err := s.dur.checkpoint(s)
		s.flushMu.Unlock()
		if err != nil {
			log.Close()
			return nil, err
		}
	}
	go s.flusher()
	return s, nil
}

func (c *checkpointState) queriesOrNil() []ckptQuery {
	if c == nil {
		return nil
	}
	return c.queries
}

// replayLog drives every log record at or beyond `from` through the same
// stage/commit machinery a live flush uses: registrations re-register
// (without re-logging), delta batches re-apply and re-fill the resume rings
// so pre-crash Watch cursors inside the window still resume exactly. Only
// staged batches were ever logged, so a replay failure means the log and the
// store code genuinely disagree — recovery stops rather than guessing.
func (s *Store) replayLog(ctx context.Context, backend wal.Backend, from uint64) (uint64, error) {
	var n uint64
	err := wal.Replay(backend, from, func(r wal.Record) error {
		n++
		switch r.Type {
		case recQuery:
			name, src, err := decodeQueryRecord(r.Payload)
			if err != nil {
				return fmt.Errorf("live: replay LSN %d: %w", r.LSN, err)
			}
			q, err := cq.ParseQuery(src)
			if err != nil {
				return fmt.Errorf("live: replay LSN %d: parsing %q: %w", r.LSN, src, err)
			}
			if err := s.register(ctx, name, q, false); err != nil {
				return fmt.Errorf("live: replay LSN %d: registering %q: %w", r.LSN, name, err)
			}
		case recDelta:
			version, delta, err := decodeDeltaRecord(r.Payload)
			if err != nil {
				return fmt.Errorf("live: replay LSN %d: %w", r.LSN, err)
			}
			// Replay runs before the store is shared, but it takes the same
			// locks a live flush does (the logged version plays the role
			// s.version+1 plays live) so the stage/commit invariants hold
			// uniformly.
			s.flushMu.Lock()
			st, serr := s.stage(ctx, delta, version)
			if serr == nil {
				s.mu.Lock()
				s.commitLocked(st, false)
				s.mu.Unlock()
			}
			s.flushMu.Unlock()
			if serr != nil {
				return fmt.Errorf("live: replay LSN %d (version %d): %w", r.LSN, version, serr)
			}
		default:
			// Unknown record type: written by a newer version. Skipping is
			// wrong (state would diverge) — stop recovery explicitly.
			return fmt.Errorf("live: replay LSN %d: unknown record type %d", r.LSN, r.Type)
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	return n, nil
}
