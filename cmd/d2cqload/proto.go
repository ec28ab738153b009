package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"d2cq/internal/storage"
	"d2cq/internal/wire"
)

// backend abstracts the transport under the open loop: the HTTP/JSON + SSE
// surface or the binary wire protocol, driven by the identical schedule so a
// BENCH report compares transports, not workloads.
type backend interface {
	register(name, src string) error
	// submit ships the one linked pair (marker, mid) / (mid, z) into query
	// qi's relations — exactly one new solution, matching the HTTP leg.
	submit(qi int, marker, mid, z string) error
	// watch consumes the query's notification stream, resolving markers
	// against pendingMarks into the notify recorder; ready.Done() once
	// subscribed, return when done closes.
	watch(name string, pendingMarks *sync.Map, notify *latencyRecorder, done <-chan struct{}, ready *sync.WaitGroup)
	stats() (json.RawMessage, error)
	close() error
}

// --- HTTP backend: the original surface ---

type httpBackend struct {
	cl *client
}

func (b *httpBackend) register(name, src string) error {
	var resp struct {
		Count int64 `json:"count"`
	}
	return b.cl.postJSON("/query", map[string]any{"name": name, "query": src}, &resp)
}

func (b *httpBackend) submit(qi int, marker, mid, z string) error {
	body := map[string]any{"insert": map[string][][]string{
		fmt.Sprintf("R%d", qi): {{marker, mid}},
		fmt.Sprintf("S%d", qi): {{mid, z}},
	}}
	return b.cl.postJSON("/update", body, nil)
}

func (b *httpBackend) watch(name string, pendingMarks *sync.Map, notify *latencyRecorder, done <-chan struct{}, ready *sync.WaitGroup) {
	watcher(b.cl, name, pendingMarks, notify, done, ready)
}

func (b *httpBackend) stats() (json.RawMessage, error) {
	req, err := http.NewRequest(http.MethodGet, b.cl.base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	b.cl.authorize(req)
	resp, err := b.cl.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: %s", resp.Status)
	}
	return json.RawMessage(raw), nil
}

func (b *httpBackend) close() error { return nil }

// --- wire backend: the binary protocol through the native client ---

type wireBackend struct {
	c *wire.Client
}

func newWireBackend(addr, token string) (*wireBackend, error) {
	c, err := wire.Dial(addr, wire.ClientOptions{Token: token})
	if err != nil {
		return nil, err
	}
	return &wireBackend{c: c}, nil
}

func (b *wireBackend) register(name, src string) error {
	_, err := b.c.Register(context.Background(), name, src)
	return err
}

func (b *wireBackend) submit(qi int, marker, mid, z string) error {
	delta := storage.NewDelta().
		Add(fmt.Sprintf("R%d", qi), marker, mid).
		Add(fmt.Sprintf("S%d", qi), mid, z)
	_, _, err := b.c.Submit(context.Background(), delta, false)
	return err
}

func (b *wireBackend) watch(name string, pendingMarks *sync.Map, notify *latencyRecorder, done <-chan struct{}, ready *sync.WaitGroup) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := b.c.Watch(ctx, name, wire.WatchOptions{Window: 64})
	ready.Done()
	if err != nil {
		return
	}
	defer w.Cancel()
	go func() {
		<-done
		cancel()
	}()
	for {
		n, ok := w.Next(ctx)
		if !ok {
			return
		}
		now := time.Now()
		for _, row := range n.Added {
			if len(row) == 0 {
				continue
			}
			if sched, ok := pendingMarks.LoadAndDelete(row[0]); ok {
				notify.add(now.Sub(sched.(time.Time)))
			}
		}
	}
}

func (b *wireBackend) stats() (json.RawMessage, error) {
	return b.c.Stats(context.Background())
}

func (b *wireBackend) close() error { return b.c.Close() }

// probeWatch is the restart-smoke seam: open one wire watch stream —
// resuming from a cursor when -probe-from is set — and print the snapshot
// plus each change's version, so a shell script can assert exact resume
// semantics across a kill -9 (the wire twin of the SSE Last-Event-ID leg).
func probeWatch(cfg config, out io.Writer) error {
	c, err := wire.Dial(cfg.addr, wire.ClientOptions{Token: cfg.token})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.probeTimeout)
	defer cancel()
	opts := wire.WatchOptions{}
	if cfg.probeFrom >= 0 {
		from := uint64(cfg.probeFrom)
		opts.From = &from
	}
	w, err := c.Watch(ctx, cfg.probeWatch, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "probe: snapshot resumed=%v lagged=%v version=%d count=%d\n",
		w.Snapshot.Resumed, w.Snapshot.Lagged, w.Snapshot.Version, w.Snapshot.Count)
	for i := 0; i < cfg.probeCount; i++ {
		n, ok := w.Next(ctx)
		if !ok {
			return fmt.Errorf("probe: stream ended after %d of %d changes: %v", i, cfg.probeCount, w.Err())
		}
		fmt.Fprintf(out, "probe: change version=%d added=%d removed=%d\n", n.Version, len(n.Added), len(n.Removed))
	}
	return nil
}

// authorize adds the bearer token when one is configured.
func (cl *client) authorize(req *http.Request) {
	if cl.token != "" {
		req.Header.Set("Authorization", "Bearer "+cl.token)
	}
}
