// Command d2cqd serves live conjunctive queries over HTTP/JSON: it owns an
// evolving database behind a live.Store, registers queries on demand, absorbs
// update streams through the coalescing ingestion pipeline, and pushes
// result-change notifications to watchers over Server-Sent Events.
//
// Usage:
//
//	d2cqd [-addr 127.0.0.1:8344] [-db file] [-max-batch 256] [-max-latency 25ms] [-buffer 16] [-parallelism n]
//	      [-data-dir dir] [-fsync always|off|duration] [-checkpoint-every 64]
//	      [-listen-wire host:port] [-auth-token T]
//
// With -listen-wire the daemon also serves the binary wire protocol
// (internal/wire) on that address, against the same store the HTTP endpoints
// route to; shutdown drains both listeners. With -auth-token every HTTP
// request must carry "Authorization: Bearer T" (compared in constant time;
// 401 otherwise) and every wire handshake must present the same token.
//
// With -data-dir the store is durable: every applied batch and registration
// is written to a write-ahead log under the directory before it becomes
// observable, snapshot checkpoints bound recovery replay (one every
// -checkpoint-every flushes, plus on startup and shutdown), and a restart
// over the same directory resumes at the exact pre-crash state. -fsync picks
// the durability/latency trade-off: "always" fsyncs per flush, a duration
// ("100ms") fsyncs on that interval, "off" leaves flushing to the OS.
//
// Request bodies of POST /query and POST /update are capped at
// maxBodyBytes (16 MiB); a larger body is answered with 413.
//
// Endpoints:
//
//	POST /query   {"name":"paths","query":"R(x,y), S(y,z)","limit":10}
//	              registers the named query (idempotent) and returns its
//	              vars, count and — when limit is non-zero — up to limit
//	              solution rows (limit < 0: all).
//	POST /update  {"insert":{"R":[["a","b"]]},"delete":{"S":[["c","d"]]}}
//	              submits one delta to the ingestion pipeline (coalesced,
//	              applied within max-latency). With ?sync=1 the batch is
//	              flushed before responding.
//	GET  /watch?query=paths
//	              an SSE stream: one "snapshot" event with the current
//	              count, then one "change" event per flush that changed the
//	              result, carrying the exact added/removed tuples. Every
//	              event carries an SSE id (the snapshot version); a client
//	              reconnecting with Last-Event-ID (or ?from=N) resumes the
//	              stream exactly when the store still holds every change
//	              past that cursor — otherwise it gets a fresh "snapshot"
//	              event with "lagged":true and must re-read the result.
//	GET  /solutions?query=paths&limit=10
//	              the named query's current rows (limit < 1: all) and the
//	              snapshot version they were read at.
//	GET  /stats   store + engine counters as JSON (plus a durability
//	              section — log size, checkpoints, replay length — when
//	              -data-dir is set, and per-query watch backpressure under
//	              "backpressure" whenever credit-gated wire watchers exist).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/live"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
	"d2cq/internal/wire"
)

// parseFsync maps the -fsync flag onto a WAL sync policy.
func parseFsync(v string) (wal.SyncMode, time.Duration, error) {
	switch v {
	case "always":
		return wal.SyncAlways, 0, nil
	case "off":
		return wal.SyncOff, 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("-fsync must be always, off, or a positive duration (got %q)", v)
	}
	return wal.SyncInterval, d, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "d2cqd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("d2cqd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address (host:port; port 0 picks a free one)")
	dbPath := fs.String("db", "", "initial database file, one ground atom per line (empty: start with an empty database)")
	maxBatch := fs.Int("max-batch", 0, "flush the coalesced batch at this many pending tuples (0: default 256)")
	maxLatency := fs.Duration("max-latency", 0, "flush the coalesced batch at the latest this long after the first pending tuple (0: default 25ms)")
	buffer := fs.Int("buffer", 0, "per-query broadcast ring capacity before slow watchers drop (0: default 16)")
	parallelism := fs.Int("parallelism", 0, "engine worker pool for evaluation passes (0/1: sequential, -1: one per CPU)")
	dataDir := fs.String("data-dir", "", "durable mode: write-ahead log + checkpoints under this directory; restarts resume the pre-crash state")
	fsync := fs.String("fsync", "always", "WAL fsync policy: always (per flush), off, or an interval duration like 100ms")
	ckptEvery := fs.Int("checkpoint-every", 0, "flushes between snapshot checkpoints in durable mode (0: default 64)")
	listenWire := fs.String("listen-wire", "", "also serve the binary wire protocol on this address (host:port; empty: HTTP only)")
	authToken := fs.String("auth-token", "", "require this bearer token on every HTTP request and wire handshake (empty: no auth)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db := cq.Database{}
	if *dbPath != "" {
		data, err := os.ReadFile(*dbPath)
		if err != nil {
			return err
		}
		if db, err = cq.ParseDatabaseString(string(data)); err != nil {
			return err
		}
	}
	var opts []engine.Option
	if *parallelism != 0 {
		opts = append(opts, engine.WithParallelism(*parallelism))
	}
	cfg := live.Config{MaxBatch: *maxBatch, MaxLatency: *maxLatency, Buffer: *buffer}
	var store *live.Store
	var err error
	if *dataDir != "" {
		if *dbPath != "" {
			// The log is the source of truth in durable mode; silently also
			// loading a -db file would make restarts diverge from it.
			return fmt.Errorf("-db and -data-dir are mutually exclusive (feed initial data through POST /update)")
		}
		mode, interval, err2 := parseFsync(*fsync)
		if err2 != nil {
			return err2
		}
		var backend wal.Backend
		if backend, err = wal.NewFS(*dataDir); err != nil {
			return err
		}
		store, err = live.Open(context.Background(), engine.NewEngine(opts...), live.DurableConfig{
			Config:          cfg,
			Backend:         backend,
			SyncMode:        mode,
			SyncInterval:    interval,
			CheckpointEvery: *ckptEvery,
		})
	} else {
		store, err = live.NewStore(context.Background(), engine.NewEngine(opts...), db, cfg)
	}
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "d2cqd listening on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: newAuthServer(store, *authToken)}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	// The wire listener serves the same store beside HTTP: two protocols,
	// one state, one token.
	var wireSrv *wire.Server
	if *listenWire != "" {
		wln, err := net.Listen("tcp", *listenWire)
		if err != nil {
			ln.Close()
			store.Close()
			return err
		}
		fmt.Fprintf(out, "d2cqd wire listening on %s\n", wln.Addr())
		wireSrv = wire.NewServer(store, wire.Options{Token: *authToken})
		go func() {
			if werr := wireSrv.Serve(wln); werr != nil {
				errCh <- werr
			}
		}()
	}
	shutdown := func() error {
		// Close the store first: that ends every subscription (Next returns
		// false), which is what makes the in-flight /watch handlers and wire
		// watch pumps drain — srv.Shutdown alone would wait its full timeout
		// on them (it never cancels in-flight request contexts), and a wire
		// connection would idle forever on a silent stream.
		cerr := store.Close()
		if wireSrv != nil {
			if werr := wireSrv.Close(); werr != nil && cerr == nil {
				cerr = werr
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if err == nil {
			err = cerr
		}
		return err
	}
	select {
	case err := <-errCh:
		shutdown()
		return err
	case <-stop:
		fmt.Fprintln(out, "d2cqd shutting down")
		return shutdown()
	}
}

// server routes the HTTP API onto one live.Store.
type server struct {
	store *live.Store
	token string
	mux   *http.ServeMux
}

// newServer returns the daemon's HTTP handler over the given store — the
// seam the integration tests drive without a process boundary.
func newServer(store *live.Store) http.Handler { return newAuthServer(store, "") }

// newAuthServer is newServer plus a bearer token guarding every endpoint.
func newAuthServer(store *live.Store, token string) http.Handler {
	s := &server{store: store, token: token, mux: http.NewServeMux()}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/update", s.handleUpdate)
	s.mux.HandleFunc("/watch", s.handleWatch)
	s.mux.HandleFunc("/solutions", s.handleSolutions)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

// ServeHTTP checks the bearer token (the same constant-time predicate the
// wire handshake uses) before routing.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.token != "" {
		presented, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || !wire.TokenOK(s.token, presented) {
			w.Header().Set("WWW-Authenticate", `Bearer realm="d2cqd"`)
			httpError(w, http.StatusUnauthorized, fmt.Errorf("missing or invalid bearer token"))
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// httpError renders an error as a JSON body with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// maxBodyBytes caps the request body of POST /query and POST /update, so
// one client cannot make the daemon buffer and decode an unbounded document.
// It sits far above any real request: a 10,000-tuple update is well under
// a megabyte of JSON.
const maxBodyBytes = 16 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes into v,
// answering 400 for malformed JSON and 413 for an oversized body. It reports
// whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, err)
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Name  string `json:"name"`
	Query string `json:"query"`
	// Limit asks for solution rows too: > 0 caps them, < 0 returns all,
	// 0 returns the count only.
	Limit int `json:"limit"`
}

type queryResponse struct {
	live.QueryInfo
	Rows [][]string `json:"rows,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Query == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("name and query are required"))
		return
	}
	q, err := cq.ParseQuery(req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.store.Register(r.Context(), req.Name, q); err != nil {
		status := http.StatusBadRequest // compilation/width failures
		switch {
		case errors.Is(err, live.ErrQueryConflict):
			status = http.StatusConflict
		case errors.Is(err, live.ErrClosed):
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err)
		return
	}
	info, err := s.store.Info(req.Name)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	resp := queryResponse{QueryInfo: info}
	if req.Limit != 0 {
		rows, _, err := s.store.Solutions(r.Context(), req.Name, req.Limit)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		resp.Rows = rows
	}
	writeJSON(w, resp)
}

// updateRequest is the POST /update body — the JSON mirror of a
// storage.Delta (deletes apply first, set semantics).
type updateRequest struct {
	Insert map[string][][]string `json:"insert"`
	Delete map[string][][]string `json:"delete"`
}

type updateResponse struct {
	Version       uint64 `json:"version"`
	PendingTuples int    `json:"pending_tuples"`
}

func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req updateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	delta := &storage.Delta{Insert: req.Insert, Delete: req.Delete}
	if err := s.store.Submit(delta); err != nil {
		status := http.StatusBadRequest // arity validation
		if errors.Is(err, live.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err)
		return
	}
	if r.URL.Query().Get("sync") != "" {
		if err := s.store.Flush(r.Context()); err != nil {
			// Not necessarily this caller's fault: the flushed batch may
			// carry other submitters' tuples (this delta already passed
			// Submit validation above).
			status := http.StatusInternalServerError
			if errors.Is(err, live.ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			httpError(w, status, err)
			return
		}
	}
	writeJSON(w, updateResponse{Version: s.store.Version(), PendingTuples: s.store.PendingTuples()})
}

// snapshotEvent is the first SSE event of a watch stream: where the
// subscriber starts from. Lagged is set when the client presented a resume
// cursor the store no longer covers — its diff stream has a hole, and this
// snapshot is the resynchronisation point.
type snapshotEvent struct {
	Query   string   `json:"query"`
	Version uint64   `json:"version"`
	Count   int64    `json:"count"`
	Vars    []string `json:"vars"`
	Lagged  bool     `json:"lagged,omitempty"`
}

func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	name := r.URL.Query().Get("query")
	if name == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("query parameter is required"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	// A resume cursor comes from the standard SSE reconnect header, or from
	// ?from= for clients that manage cursors themselves. The cursor is the
	// version of the last event the client fully processed.
	cursor, hasCursor := uint64(0), false
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad Last-Event-ID %q: %w", v, err))
			return
		}
		cursor, hasCursor = n, true
	} else if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad from %q: %w", v, err))
			return
		}
		cursor, hasCursor = n, true
	}
	// Subscribe before reading the snapshot: a flush between the two at
	// worst duplicates a change into the snapshot, never loses one. With a
	// resumable cursor the missed changes are already queued on the
	// subscription, so no snapshot is needed at all.
	var sub *live.Subscription
	resumed := false
	var err error
	if hasCursor {
		sub, resumed, err = s.store.WatchFrom(name, cursor)
	} else {
		sub, err = s.store.Watch(name)
	}
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	defer sub.Cancel()
	info, err := s.store.Info(name)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Every event carries its snapshot version as the SSE id, so the
	// browser's automatic Last-Event-ID reconnect resumes at the right spot.
	event := func(kind string, id uint64, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", kind, id, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !resumed {
		snap := snapshotEvent{Query: info.Name, Version: info.Version, Count: info.Count, Vars: info.Vars, Lagged: hasCursor}
		if !event("snapshot", info.Version, snap) {
			return
		}
	}
	for {
		// Next blocks on the query's shared broadcast ring — no per-watcher
		// buffer — and returns false when the store closes, the subscription
		// ends, or the client goes away (the request context).
		n, ok := sub.Next(r.Context())
		if !ok {
			return
		}
		if !event("change", n.Version, n) {
			return
		}
	}
}

// solutionsResponse is the GET /solutions body: a point-in-time read of a
// registered query's rows and the version they were read at.
type solutionsResponse struct {
	Query   string     `json:"query"`
	Version uint64     `json:"version"`
	Rows    [][]string `json:"rows"`
}

func (s *server) handleSolutions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	name := r.URL.Query().Get("query")
	if name == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("query parameter is required"))
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q: %w", v, err))
			return
		}
		limit = n
	}
	rows, version, err := s.store.Solutions(r.Context(), name, limit)
	if err != nil {
		status := http.StatusNotFound
		if errors.Is(err, live.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err)
		return
	}
	if rows == nil {
		rows = [][]string{}
	}
	writeJSON(w, solutionsResponse{Query: name, Version: version, Rows: rows})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.store.Stats())
}
