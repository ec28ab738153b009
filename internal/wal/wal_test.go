package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"
)

func collect(t *testing.T, b Backend, from uint64) []Record {
	t.Helper()
	var out []Record
	if err := Replay(b, from, func(r Record) error {
		out = append(out, Record{LSN: r.LSN, Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// TestAppendReplayRoundTrip: records come back in order with their LSNs,
// types, and payloads intact, across a close/reopen cycle and from any
// starting cursor.
func TestAppendReplayRoundTrip(t *testing.T) {
	for _, backend := range []Backend{NewMem(), mustFS(t)} {
		l, err := Open(backend, Options{Mode: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		var want []Record
		for i := 0; i < 20; i++ {
			payload := []byte(fmt.Sprintf("payload-%d", i))
			lsn, err := l.Append(byte(i%3), payload)
			if err != nil {
				t.Fatal(err)
			}
			if lsn != uint64(i+1) {
				t.Fatalf("append %d: lsn %d, want %d", i, lsn, i+1)
			}
			want = append(want, Record{LSN: lsn, Type: byte(i % 3), Payload: payload})
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got := collect(t, backend, 0)
		assertRecords(t, got, want)
		// Replay from a mid-log cursor yields exactly the suffix.
		assertRecords(t, collect(t, backend, 11), want[10:])
		// Reopen continues the LSN sequence.
		l, err = Open(backend, Options{Mode: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		if got := l.NextLSN(); got != 21 {
			t.Fatalf("NextLSN after reopen = %d, want 21", got)
		}
		lsn, err := l.Append(9, []byte("after"))
		if err != nil || lsn != 21 {
			t.Fatalf("append after reopen: lsn %d, err %v", lsn, err)
		}
		l.Close()
		assertRecords(t, collect(t, backend, 21), []Record{{LSN: 21, Type: 9, Payload: []byte("after")}})
	}
}

func assertRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func mustFS(t *testing.T) *FS {
	t.Helper()
	fs, err := NewFS(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestSegmentRotation: a tiny SegmentBytes forces rotation; every record
// stays reachable, TruncateBefore removes only fully-obsolete sealed
// segments, and replay still works afterwards.
func TestSegmentRotation(t *testing.T) {
	backend := NewMem()
	l, err := Open(backend, Options{Mode: SyncOff, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 30; i++ {
		payload := []byte(fmt.Sprintf("rotating-payload-%02d", i))
		lsn, err := l.Append(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{LSN: lsn, Type: 1, Payload: payload})
	}
	segs, _ := backend.ListSegments()
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}
	assertRecords(t, collect(t, backend, 0), want)

	// Truncate below LSN 15: segments entirely under 15 go away, records
	// >= 15 all survive.
	if err := l.TruncateBefore(15); err != nil {
		t.Fatal(err)
	}
	after, _ := backend.ListSegments()
	if len(after) >= len(segs) {
		t.Fatalf("truncate removed nothing: %v -> %v", segs, after)
	}
	got := collect(t, backend, 15)
	assertRecords(t, got, want[14:])
	l.Close()
}

// TestTornTailRecovery: appending garbage or a truncated frame to the live
// segment loses only the torn record; reopen resumes at lastValid+1 and the
// new records chain cleanly past the old segment's dead tail.
func TestTornTailRecovery(t *testing.T) {
	for _, tear := range []string{"garbage", "truncated-frame", "corrupt-crc"} {
		t.Run(tear, func(t *testing.T) {
			backend := NewMem()
			l, err := Open(backend, Options{Mode: SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			var want []Record
			for i := 0; i < 5; i++ {
				payload := []byte(fmt.Sprintf("p%d", i))
				lsn, _ := l.Append(2, payload)
				want = append(want, Record{LSN: lsn, Type: 2, Payload: payload})
			}
			l.Close()

			segs, _ := backend.ListSegments()
			seg := backend.segs[segs[len(segs)-1]]
			switch tear {
			case "garbage":
				seg.Write([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
			case "truncated-frame":
				// A full frame chopped mid-payload.
				full := seg.Bytes()
				frame := append([]byte(nil), full[len(full)-20:]...)
				seg.Write(frame[:len(frame)-7])
			case "corrupt-crc":
				full := seg.Bytes()
				full[len(full)-1] ^= 0xff
				want = want[:len(want)-1] // the flipped byte killed the last record
			}

			assertRecords(t, collect(t, backend, 0), want)
			l, err = Open(backend, Options{Mode: SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			next := want[len(want)-1].LSN + 1
			if got := l.NextLSN(); got != next {
				t.Fatalf("NextLSN = %d, want %d", got, next)
			}
			lsn, err := l.Append(3, []byte("resumed"))
			if err != nil || lsn != next {
				t.Fatalf("append after tear: lsn %d err %v, want %d", lsn, err, next)
			}
			l.Close()
			want = append(want, Record{LSN: next, Type: 3, Payload: []byte("resumed")})
			assertRecords(t, collect(t, backend, 0), want)
		})
	}
}

// TestCheckpointLifecycle: WriteCheckpoint publishes atomically-readable
// blobs, prunes to `keep`, and garbage-collects segments the oldest retained
// checkpoint covers.
func TestCheckpointLifecycle(t *testing.T) {
	backend := NewMem()
	l, err := Open(backend, Options{Mode: SyncOff, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("rotating-payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
		if (i+1)%10 == 0 {
			lsn := uint64(i + 1)
			err := l.WriteCheckpoint(lsn, 2, func(w io.Writer) error {
				_, err := fmt.Fprintf(w, "state-through-%d", lsn)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	ckpts, _ := backend.ListCheckpoints()
	if len(ckpts) != 2 || ckpts[0] != 20 || ckpts[1] != 30 {
		t.Fatalf("checkpoints = %v, want [20 30]", ckpts)
	}
	lsn, ok, err := LatestCheckpoint(backend)
	if err != nil || !ok || lsn != 30 {
		t.Fatalf("LatestCheckpoint = %d %v %v", lsn, ok, err)
	}
	rc, err := backend.OpenCheckpoint(30)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(rc)
	rc.Close()
	if string(blob) != "state-through-30" {
		t.Fatalf("checkpoint blob = %q", blob)
	}
	// GC: every record > oldest retained checkpoint (20) must survive.
	got := collect(t, backend, 21)
	if len(got) != 10 || got[0].LSN != 21 {
		t.Fatalf("post-GC replay from 21: %d records starting at %d", len(got), got[0].LSN)
	}
	st, err := l.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints != 2 || st.LastCheckpointLSN != 30 || st.NextLSN != 31 || st.Segments == 0 || st.LogBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	l.Close()
}

// TestMemClone: a clone is independent — appends to the original do not leak
// into the clone, which behaves like a crash image frozen at clone time.
func TestMemClone(t *testing.T) {
	backend := NewMem()
	l, _ := Open(backend, Options{Mode: SyncOff})
	l.Append(1, []byte("before"))
	snap := backend.Clone()
	l.Append(1, []byte("after"))
	l.Close()
	if got := collect(t, snap, 0); len(got) != 1 || string(got[0].Payload) != "before" {
		t.Fatalf("clone sees %v", got)
	}
	if got := collect(t, backend, 0); len(got) != 2 {
		t.Fatalf("original sees %d records, want 2", len(got))
	}
	// The clone reopens like any crashed store.
	l2, err := Open(snap, Options{Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if l2.NextLSN() != 2 {
		t.Fatalf("clone NextLSN = %d, want 2", l2.NextLSN())
	}
	l2.Close()
}

// TestClosedLogErrors: every mutating call on a closed log fails with
// ErrClosed; double Close is a no-op.
func TestClosedLogErrors(t *testing.T) {
	l, _ := Open(NewMem(), Options{Mode: SyncOff})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := l.Append(1, nil); err != ErrClosed {
		t.Fatalf("append on closed: %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("sync on closed: %v", err)
	}
	if err := l.TruncateBefore(1); err != ErrClosed {
		t.Fatalf("truncate on closed: %v", err)
	}
}

// failingBackend is a Mem whose segment writers fail every Write once armed.
type failingBackend struct {
	*Mem
	fail bool
}

func (b *failingBackend) CreateSegment(start uint64) (SegmentWriter, error) {
	w, err := b.Mem.CreateSegment(start)
	return failingSegment{SegmentWriter: w, b: b}, err
}

type failingSegment struct {
	SegmentWriter
	b *failingBackend
}

func (s failingSegment) Write(p []byte) (int, error) {
	if s.b.fail {
		return 0, errWriteFault
	}
	return s.SegmentWriter.Write(p)
}

var errWriteFault = errors.New("injected write fault")

// TestWriteErrorPoisonsLog: after one failed write the log is fail-stop.
// Every later Append, Sync, WriteCheckpoint and Close reports the first
// error wrapped in ErrPoisoned, even once the backend works again.
func TestWriteErrorPoisonsLog(t *testing.T) {
	backend := &failingBackend{Mem: NewMem()}
	l, err := Open(backend, Options{Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	backend.fail = true
	if _, err := l.Append(1, []byte("lost")); !errors.Is(err, ErrPoisoned) || !errors.Is(err, errWriteFault) {
		t.Fatalf("failed append = %v, want ErrPoisoned wrapping the write fault", err)
	}
	backend.fail = false
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrPoisoned) || !errors.Is(err, errWriteFault) {
			t.Fatalf("%s on a poisoned log = %v, want ErrPoisoned wrapping the write fault", op, err)
		}
	}
	_, err = l.Append(1, []byte("later"))
	check("append", err)
	check("sync", l.Sync())
	check("checkpoint", l.WriteCheckpoint(1, 1, func(io.Writer) error { return nil }))
	check("close", l.Close())
	if got := collect(t, backend, 0); len(got) != 1 {
		t.Fatalf("log holds %d records, want only the one before the fault", len(got))
	}
}

// TestSyncIntervalLifecycle: an interval-mode log starts and stops its
// background syncer cleanly and still persists everything on Close.
func TestSyncIntervalLifecycle(t *testing.T) {
	backend := mustFS(t)
	l, err := Open(backend, Options{Mode: SyncInterval, Interval: 1e6 /* 1ms */})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, []byte("tick")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, backend, 0); len(got) != 10 {
		t.Fatalf("replay after interval-mode close: %d records, want 10", len(got))
	}
}
