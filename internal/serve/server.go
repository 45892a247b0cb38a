package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"plum/internal/core"
	"plum/internal/obs"
	"plum/internal/scenario"
)

// Config shapes a Server.  Zero values take defaults in NewServer.
type Config struct {
	// CacheDir holds the crash-safe result cache ("" = no cache).
	CacheDir string
	// Workers bounds concurrently simulating worlds (0 = GOMAXPROCS).
	Workers int
	// Queue bounds requests waiting for a worker beyond those running;
	// an arrival past the bound is shed with 429 (0 = 2*Workers).
	Queue int
	// DefaultTimeout caps a request that names no timeout_seconds
	// (0 = no implicit deadline).
	DefaultTimeout time.Duration
	// Scenarios is the loaded corpus requests may name (nil = none).
	Scenarios []*scenario.Spec
	// Chaos enables the fault-injection request field.  Off by default:
	// a production daemon refuses chaos requests with 403.
	Chaos bool
}

// errShed marks a flight whose leader was shed by admission control;
// followers translate it into the same retry advice.
var errShed = errors.New("serve: shed by admission control")

// flight is one in-flight computation of a digest, shared by the
// leader (who simulates) and any followers (identical requests that
// arrived while it ran).  The leader fills the result fields, closes
// done, and unregisters the flight; followers wait on done and replay.
type flight struct {
	done chan struct{}

	// Set before done closes.  Exactly one of body / werr / err is the
	// outcome: a completed response, a world fault, or a leader-side
	// cancellation (followers then retry rather than inherit the cancel).
	body []byte
	werr *WorldError
	err  error
}

// Server is the sweep-serving daemon: an http.Handler accepting
// experiment requests on POST /run and streaming NDJSON result rows.
type Server struct {
	cfg   Config
	exp   *core.Experiments
	cache *Cache
	mux   *http.ServeMux

	// baseCtx parents every request's run context; cancelAll fires it
	// during drain to sweep stragglers cooperatively.
	baseCtx   context.Context
	cancelAll context.CancelFunc

	// workers and waiters are counting semaphores: a request holds a
	// waiters slot from admission to completion and a workers slot while
	// its world simulates.  Admission sheds when waiters is full — the
	// bounded queue of the back-pressure story.
	workers chan struct{}
	waiters chan struct{}

	// drainMu orders request registration against the drain transition:
	// inflight.Add may not race inflight.Wait, so the draining check and
	// the Add are one atomic step, and Drain flips the flag under the
	// same lock before it waits.
	drainMu  sync.Mutex
	draining atomic.Bool
	inflight sync.WaitGroup

	mu      sync.Mutex
	flights map[string]*flight

	reqOK, reqCached, reqFollower, reqShed, reqBad, reqErr, reqCancel *obs.Counter
	sfLeader, sfFollower                                              *obs.Counter
	queueDepth                                                        *obs.Gauge
	drainSeconds                                                      *obs.Gauge
}

// NewServer builds the daemon around a shared experiment harness.
// exp must outlive the server; the server only reads it (the
// RunWorldCtx concurrency contract).
func NewServer(exp *core.Experiments, cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 2 * cfg.Workers
	}
	cache, err := OpenCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		exp:     exp,
		cache:   cache,
		mux:     http.NewServeMux(),
		workers: make(chan struct{}, cfg.Workers),
		waiters: make(chan struct{}, cfg.Workers+cfg.Queue),
		flights: make(map[string]*flight),

		reqOK:        obs.Default.Counter("plumserve_requests_total", "result", "ok"),
		reqCached:    obs.Default.Counter("plumserve_requests_total", "result", "cached"),
		reqFollower:  obs.Default.Counter("plumserve_requests_total", "result", "singleflight"),
		reqShed:      obs.Default.Counter("plumserve_requests_total", "result", "shed"),
		reqBad:       obs.Default.Counter("plumserve_requests_total", "result", "bad_request"),
		reqErr:       obs.Default.Counter("plumserve_requests_total", "result", "error"),
		reqCancel:    obs.Default.Counter("plumserve_requests_total", "result", "cancelled"),
		sfLeader:     obs.Default.Counter("plumserve_singleflight_total", "role", "leader"),
		sfFollower:   obs.Default.Counter("plumserve_singleflight_total", "role", "follower"),
		queueDepth:   obs.Default.Gauge("plumserve_queue_depth"),
		drainSeconds: obs.Default.Gauge("plumserve_drain_millis"),
	}
	s.baseCtx, s.cancelAll = context.WithCancel(context.Background())
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	// The host plane: scraping it reads only host data (the metrics
	// registry, the Go profiler), so it cannot perturb a world in flight.
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.Default.WritePrometheus(w)
	})
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Cache exposes the result cache (drain flushing, tests).
func (s *Server) Cache() *Cache { return s.cache }

// handleReadyz is the load-balancer rotation probe: 200 while
// admitting, 503 the moment drain begins — before in-flight worlds
// finish, so a fronting balancer stops routing here while the daemon
// still completes what it holds.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleHealthz reports the process state: "running", or "draining"
// from the moment Drain begins.  Unlike /readyz it answers 200 either
// way — the process is alive — so a supervisor can watch a drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "running"
	if s.draining.Load() {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":%q}\n", status)
}

// retryAfterSeconds estimates when a shed client should come back:
// the observed mean world wall-clock (falling back to one second before
// any world has run) times the queue generations ahead of it.
func (s *Server) retryAfterSeconds() int {
	est := core.WorldWallEstimate(1.0)
	gens := float64(len(s.waiters))/float64(cap(s.workers)) + 1
	sec := int(math.Ceil(est * gens))
	if sec < 1 {
		sec = 1
	}
	return sec
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", fmt.Sprintf(format, args...))
}

// handleRun is the request lifecycle: decode strictly, admit or shed,
// answer from the cache, collapse onto an existing flight, or lead a
// new simulation and stream its rows.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a request object to /run")
		return
	}
	if s.draining.Load() {
		s.reqShed.Inc()
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	req, err := ParseRequest(r.Body)
	if err != nil {
		s.reqBad.Inc()
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if req.Chaos != "" {
		if !s.cfg.Chaos {
			s.reqBad.Inc()
			httpError(w, http.StatusForbidden, "chaos injection is disabled on this server")
			return
		}
		if _, err := parseChaos(req.Chaos); err != nil {
			s.reqBad.Inc()
			httpError(w, http.StatusBadRequest, "bad chaos spec: %v", err)
			return
		}
	}
	ws, err := req.Spec(s.cfg.Scenarios)
	if err != nil {
		s.reqBad.Inc()
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	digest := req.Digest()
	w.Header().Set("X-Plum-Digest", digest)

	// The cache answers before any scheduling: a verified hit costs no
	// queue slot, no worker, no simulation.
	if body, ok := s.cache.Get(req); ok {
		s.reqCached.Inc()
		w.Header().Set("X-Plum-Cache", "hit")
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(body)
		return
	}

	// Track the request for drain.  Check-and-register is atomic with
	// respect to Drain: once the flag flips no new Add can slip past the
	// Wait.
	s.drainMu.Lock()
	if s.draining.Load() {
		s.drainMu.Unlock()
		s.reqShed.Inc()
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.inflight.Add(1)
	s.drainMu.Unlock()
	defer s.inflight.Done()

	// Singleflight: one simulation per digest.  Register-or-join is
	// atomic under the lock; the loser becomes a follower.  Joining
	// precedes admission control because a follower consumes no
	// simulation capacity — only leaders compete for queue slots.
	s.mu.Lock()
	if fl, ok := s.flights[digest]; ok {
		s.mu.Unlock()
		s.sfFollower.Inc()
		s.followFlight(w, r, fl)
		return
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[digest] = fl
	s.mu.Unlock()
	s.sfLeader.Inc()
	s.leadFlight(w, r, req, ws, digest, fl)
}

// followFlight waits for the digest's leader and replays its outcome.
func (s *Server) followFlight(w http.ResponseWriter, r *http.Request, fl *flight) {
	select {
	case <-r.Context().Done():
		s.reqCancel.Inc()
		return // client gone; nothing to write
	case <-fl.done:
	}
	switch {
	case fl.body != nil:
		s.reqFollower.Inc()
		w.Header().Set("X-Plum-Cache", "singleflight")
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(fl.body)
	case fl.werr != nil:
		s.reqErr.Inc()
		s.writeWorldError(w, fl.werr)
	default:
		// The leader was cancelled (its client vanished, its deadline
		// fired).  The follower did nothing wrong: tell it to retry —
		// immediately, since a worker just freed.
		s.reqCancel.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable,
			"the in-flight computation of this request was cancelled; retry")
	}
}

// writeWorldError renders a world fault as a structured 500.
func (s *Server) writeWorldError(w http.ResponseWriter, we *WorldError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	w.Write(marshalLine(struct {
		Kind  string      `json:"kind"`
		Error *WorldError `json:"error"`
	}{"world_error", we}))
}

// runContext derives the world's context: the client's own context
// (disconnect = cancel), parented to the server's base context (drain
// sweeps it), bounded by the request or server deadline.
func (s *Server) runContext(r *http.Request, req *Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	cleanup := func() { stop(); cancel() }
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutSeconds > 0 {
		timeout = time.Duration(req.TimeoutSeconds * float64(time.Second))
	}
	if timeout > 0 {
		var cancelD context.CancelFunc
		ctx, cancelD = context.WithDeadline(ctx, time.Now().Add(timeout))
		inner := cleanup
		cleanup = func() { cancelD(); inner() }
	}
	return ctx, cleanup
}

// leadFlight simulates the request's world, streaming rows to this
// client as epochs complete, and publishes the outcome to followers.
func (s *Server) leadFlight(w http.ResponseWriter, r *http.Request, req *Request, ws core.WorldSpec, digest string, fl *flight) {
	defer func() {
		s.mu.Lock()
		delete(s.flights, digest)
		s.mu.Unlock()
		close(fl.done)
	}()

	// Admission control: the bounded queue.  An arrival past the bound
	// is shed with 429 + Retry-After; its followers (if any joined in
	// the window) get the retry 503 through the flight.
	select {
	case s.waiters <- struct{}{}:
	default:
		s.reqShed.Inc()
		fl.err = errShed
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests,
			"queue full (%d waiting, %d workers)", cap(s.waiters), cap(s.workers))
		return
	}
	s.queueDepth.Set(int64(len(s.waiters)))
	defer func() {
		<-s.waiters
		s.queueDepth.Set(int64(len(s.waiters)))
	}()

	ctx, cancel := s.runContext(r, req)
	defer cancel()

	// Wait for a worker slot — still cancellable while queued.
	select {
	case s.workers <- struct{}{}:
		defer func() { <-s.workers }()
	case <-ctx.Done():
		s.reqCancel.Inc()
		fl.err = ctx.Err()
		return
	}

	emit := s.buildEmit(req)
	rowCh := make(chan Row, 64)
	type outcome struct {
		run core.FeedbackRun
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		run, err := s.exp.RunWorldCtx(ctx, ws, func(ep core.FeedbackEpoch) {
			emit(ep.Cycle)
			rowCh <- RowFromEpoch(ep)
		})
		close(rowCh)
		resCh <- outcome{run, err}
	}()

	// Stream rows as the world produces them.  The handler drains
	// continuously, so emit (called from the world's rank-0 goroutine)
	// never blocks for long; headers commit lazily at the first row so a
	// pre-row fault can still change the status line.
	flusher, _ := w.(http.Flusher)
	var rows []Row
	headered := false
	for row := range rowCh {
		if !headered {
			w.Header().Set("X-Plum-Cache", "miss")
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			headered = true
		}
		rows = append(rows, row)
		w.Write(marshalLine(row))
		if flusher != nil {
			flusher.Flush()
		}
	}
	res := <-resCh

	switch {
	case res.err == nil:
		trailer := Trailer{Kind: "end", Rows: len(rows), SimTime: res.run.SimTime, Digest: digest}
		if !headered {
			w.Header().Set("X-Plum-Cache", "miss")
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.Write(marshalLine(trailer))
		// The full body — what a cache hit or a follower will replay —
		// is exactly the bytes just streamed, by shared construction
		// through RenderBody.
		body := RenderBody(rows, res.run.SimTime, digest)
		fl.body = body
		// Chaos bodies never enter the cache: an injected stall changes
		// no row, but serving a chaos result to future identical chaos
		// requests would hide the re-injection the tests rely on.
		if req.Chaos == "" {
			if err := s.cache.Put(req, body, len(rows), res.run.SimTime); err != nil {
				fmt.Fprintf(os.Stderr, "plumserve: cache put %s: %v\n", shortKey(digest), err)
			}
		}
		s.reqOK.Inc()

	case isCancel(res.err):
		s.reqCancel.Inc()
		fl.err = res.err
		if headered {
			// Mid-stream cancel: the status line is gone; close the body
			// with an explicit error line so the client can tell a
			// cancelled stream from a completed one.
			w.Write(marshalLine(struct {
				Kind  string `json:"kind"`
				Error string `json:"error"`
			}{"cancelled", res.err.Error()}))
		} else {
			httpError(w, statusForCancel(res.err), "run cancelled: %v", res.err)
		}

	default:
		we := classifyWorldErr(digest, res.err)
		fl.werr = we
		s.reqErr.Inc()
		if st := we.Stack(); len(st) > 0 {
			fmt.Fprintf(os.Stderr, "plumserve: %v\n%s\n", we, st)
		} else {
			fmt.Fprintf(os.Stderr, "plumserve: %v\n", we)
		}
		if headered {
			w.Write(marshalLine(struct {
				Kind  string      `json:"kind"`
				Error *WorldError `json:"error"`
			}{"world_error", we}))
		} else {
			s.writeWorldError(w, we)
		}
	}
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// statusForCancel maps a cancellation cause to its status: a deadline
// is the server refusing further work (504); a plain cancel means the
// client left or the server is draining (503).
func statusForCancel(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusServiceUnavailable
}

// Drain winds the daemon down: flip /readyz, refuse new runs, give
// in-flight worlds until ctx to finish, then cancel the stragglers
// cooperatively and wait for them to unwind, and finally flush the
// cache index.  Returns nil when everything completed, ctx.Err() when
// stragglers had to be cancelled.
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelAll()
		<-done // cooperative cancellation bounds this wait
	}
	s.cancelAll()
	if ferr := s.cache.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	s.drainSeconds.Set(time.Since(start).Milliseconds())
	return err
}
