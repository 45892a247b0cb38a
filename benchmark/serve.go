package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The serve workloads: an in-process daemon on a loopback listener, a
// fresh cache directory, and a closed loop of two clients — each sends
// its next request only when the previous reply's last byte has
// arrived.  The three workloads are the three phases of one seeded
// replay and share this file's passes with the serve tour.

const serveClients = 2

// rig is one daemon instance with its listener, cache directory and
// client.
type rig struct {
	url    string
	srv    *http.Server
	done   chan struct{}
	client *http.Client
}

var rigSeq atomic.Int64

// newRig starts a daemon over h with an empty cache under workDir.
func newRig(h *harness, workDir string) (*rig, error) {
	cacheDir := filepath.Join(workDir, fmt.Sprintf("cache-%d", rigSeq.Add(1)))
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	handler, err := h.newServer(cacheDir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{
		url:  "http://" + ln.Addr().String() + "/run",
		srv:  &http.Server{Handler: handler},
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * serveClients,
		}},
	}
	go func() {
		defer close(r.done)
		r.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return r, nil
}

// close stops the daemon and waits for its accept loop to end.
func (r *rig) close() {
	if r == nil {
		return
	}
	r.client.CloseIdleConnections()
	r.srv.Close()
	<-r.done
}

// reply is one answered request, with the client-side stamps: request
// sent, first response byte, last byte.
type reply struct {
	status             int
	cache              string // X-Plum-Cache
	body               []byte
	start, first, last time.Time
	err                error
}

func msBetween(a, b time.Time) float64 { return b.Sub(a).Seconds() * 1e3 }

// latency is request sent -> last byte, in ms.
func (r reply) latency() float64 { return msBetween(r.start, r.last) }

// post sends one request and reads the reply to its last byte.
func (r *rig) post(reqJSON []byte) reply {
	var rep reply
	req, err := http.NewRequest(http.MethodPost, r.url, bytes.NewReader(reqJSON))
	if err != nil {
		rep.err = err
		return rep
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { rep.first = time.Now() },
	}))
	rep.start = time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		rep.err = err
		return rep
	}
	rep.body, rep.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.last = time.Now()
	rep.status = resp.StatusCode
	rep.cache = resp.Header.Get("X-Plum-Cache")
	return rep
}

// closedLoop has the clients work through the request list, each
// taking the next unsent request when its previous one completes.
// Replies come back in list order.
func (r *rig) closedLoop(list [][]byte) (replies []reply, wall float64) {
	replies = make([]reply, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				replies[i] = r.post(list[i])
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(t0).Seconds()
}

// pair is one collapsed operation: the same request from both clients
// at once.
type pair struct {
	replies     [serveClients]reply
	start, last time.Time // pair sent -> last byte of the slower reply
}

func (p pair) latency() float64 { return msBetween(p.start, p.last) }

func (r *rig) collapsed(list [][]byte) (pairs []pair, wall float64) {
	pairs = make([]pair, len(list))
	t0 := time.Now()
	for i, reqJSON := range list {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				pairs[i].replies[c] = r.post(reqJSON)
			}()
		}
		pairs[i].start = time.Now()
		close(start)
		wg.Wait()
		pairs[i].last = time.Now()
	}
	return pairs, time.Since(t0).Seconds()
}

// trailer is the end record of a served body.
type trailer struct {
	Kind    string  `json:"kind"`
	Rows    int     `json:"rows"`
	SimTime float64 `json:"sim_time"`
	Digest  string  `json:"digest"`
}

func parseTrailer(body []byte) (trailer, error) {
	var t trailer
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &t); err != nil {
		return t, err
	}
	if t.Kind != "end" || t.Rows != len(lines)-1 {
		return t, fmt.Errorf("body ends in %q with %d rows before it", lines[len(lines)-1], len(lines)-1)
	}
	return t, nil
}

// ledger remembers the first body accepted for every request and
// judges every later reply against it.
type ledger struct {
	*checker
	accepted map[string]acceptedBody // by request JSON
	// epochs counts the epoch rows of accepted replies.
	epochs int
}

type acceptedBody struct {
	body []byte
	trailer
}

func newLedger(c *checker) *ledger {
	return &ledger{checker: c, accepted: make(map[string]acceptedBody)}
}

// judge checks one reply: status 200, the cache header the phase
// expects, a well-formed body equal to every other body the request has
// produced.  It returns the reply's trailer when the reply passes.
func (l *ledger) judge(reqJSON []byte, rep reply, wantCache string) (trailer, bool) {
	switch {
	case rep.err != nil:
		l.fail(1, "request failed: %v", rep.err)
	case rep.status != http.StatusOK:
		l.fail(1, "status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	case rep.cache != wantCache:
		l.fail(1, "X-Plum-Cache %q, want %q", rep.cache, wantCache)
	default:
		// A repeat of an accepted body needs no second parse — which also
		// keeps the harness's own allocations out of a cached pass.
		prev, seen := l.accepted[string(reqJSON)]
		if seen && !bytes.Equal(prev.body, rep.body) {
			l.fail(1, "body for %s differs from the first one served", reqJSON)
			break
		}
		if !seen {
			t, err := parseTrailer(rep.body)
			if err != nil {
				l.fail(1, "malformed body: %v", err)
				break
			}
			prev = acceptedBody{rep.body, t}
			l.accepted[string(reqJSON)] = prev
		}
		l.pass(1)
		l.epochs += prev.Rows
		return prev.trailer, true
	}
	return trailer{}, false
}

// judgePair checks a collapsed pair: one leader (miss) and one
// follower (singleflight), byte-identical.
func (l *ledger) judgePair(reqJSON []byte, p pair) (trailer, bool) {
	a, b := p.replies[0], p.replies[1]
	if a.cache == "singleflight" {
		a, b = b, a
	}
	t, okA := l.judge(reqJSON, a, "miss")
	_, okB := l.judge(reqJSON, b, "singleflight")
	return t, okA && okB
}

// simOf sums sim_time over the distinct accepted bodies of the list.
func (l *ledger) simOf(list [][]byte) float64 {
	var total float64
	for _, reqJSON := range list {
		total += l.accepted[string(reqJSON)].SimTime
	}
	return total
}

// digestOfBodies hashes the accepted bodies of the list, in list order.
func (l *ledger) digestOfBodies(list [][]byte) string {
	return digestOf(func(w *bytes.Buffer) {
		for _, reqJSON := range list {
			w.Write(l.accepted[string(reqJSON)].body)
		}
	})
}

// checkOracle compares the served bodies of the first n requests with
// the bytes a direct RunWorldCtx renders for the same request.
func (l *ledger) checkOracle(h *harness, list [][]byte, n int) {
	for _, reqJSON := range list[:min(n, len(list))] {
		served, ok := l.accepted[string(reqJSON)]
		if !ok {
			continue // already counted as failed when it was served
		}
		direct, err := h.directRun(reqJSON, nil, nil)
		switch {
		case err != nil:
			l.fail(1, "direct run of %s: %v", reqJSON, err)
		case !bytes.Equal(direct, served.body):
			l.fail(1, "served body of %s differs from the direct run's", reqJSON)
		default:
			l.pass(1)
		}
	}
}

// repeatList is every request, round-robin, repeats times.
func repeatList(reqs [][]byte, repeats int) [][]byte {
	list := make([][]byte, 0, len(reqs)*repeats)
	for i := 0; i < repeats; i++ {
		list = append(list, reqs...)
	}
	return list
}

// runServeWorkload times one serve workload end to end.
func runServeWorkload(o runOpts) (*outcome, error) {
	n := map[string]int{wlServeCold: coldRequests, wlServeCached: cachedDigests, wlServeCollapsed: collapsedRequests}[o.workload]
	repeats, warmRequests := cachedRepeats, 4
	if o.sz.Requests > 0 {
		n, repeats, warmRequests = o.sz.Requests, 5, 1
	}

	var h *harness
	var reqs, warmReqs [][]byte
	var r *rig
	defer func() { r.close() }()
	buildS, err := timedBuilds(func() error {
		r.close()
		h = newHarness()
		all := genRequests(o.workload, o.seed, n+warmRequests)
		reqs, warmReqs = all[:n], all[n:]
		var err error
		r, err = newRig(h, o.workDir)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: make(map[string]float64)}
	led := newLedger(&out.checker)
	freshRig := func() error {
		r.close()
		var err error
		r, err = newRig(h, o.workDir)
		return err
	}

	// Warm-up, charged to set-up: a short cold pass in every case; the
	// cached workload also computes its digests here, once, and reads
	// each back.
	warmStart := time.Now()
	switch o.workload {
	case wlServeCold:
		replies, _ := r.closedLoop(warmReqs)
		for i, rep := range replies {
			led.judge(warmReqs[i], rep, "miss")
		}
	case wlServeCached:
		replies, _ := r.closedLoop(reqs)
		for i, rep := range replies {
			led.judge(reqs[i], rep, "miss")
		}
		replies, _ = r.closedLoop(reqs)
		for i, rep := range replies {
			led.judge(reqs[i], rep, "hit")
		}
	case wlServeCollapsed:
		pairs, _ := r.collapsed(warmReqs[:1])
		led.judgePair(warmReqs[0], pairs[0])
	}
	warmS := time.Since(warmStart).Seconds()

	var latencies, walls []float64
	var passEpochs int
	led.epochs = 0
	probe := readHost()
	for len(walls) == 0 || time.Since(probe.start).Seconds() < o.seconds {
		before := led.epochs
		switch o.workload {
		case wlServeCold:
			if err := freshRig(); err != nil {
				return nil, err
			}
			replies, wall := r.closedLoop(reqs)
			for i, rep := range replies {
				led.judge(reqs[i], rep, "miss")
				latencies = append(latencies, rep.latency())
			}
			walls = append(walls, wall)
		case wlServeCached:
			list := repeatList(reqs, repeats)
			replies, wall := r.closedLoop(list)
			for i, rep := range replies {
				led.judge(list[i], rep, "hit")
				latencies = append(latencies, rep.latency())
			}
			walls = append(walls, wall)
		case wlServeCollapsed:
			if err := freshRig(); err != nil {
				return nil, err
			}
			pairs, wall := r.collapsed(reqs)
			for i, p := range pairs {
				led.judgePair(reqs[i], p)
				latencies = append(latencies, p.latency())
			}
			walls = append(walls, wall)
		}
		passEpochs = led.epochs - before
	}
	host := probe.since()
	if o.workload != wlServeCached {
		led.checkOracle(h, reqs, 2)
	}

	out.digest = led.digestOfBodies(reqs)
	out.metrics["setup_s"] = buildS + warmS
	out.metrics["epochs_per_s"] = float64(passEpochs) / median(walls)
	out.metrics["allocs_per_epoch"] = host.Mallocs / float64(max(led.epochs, 1))
	out.metrics["sim_makespan_s"] = led.simOf(reqs)
	out.metrics["op_ms_p50"] = median(latencies)
	return out, nil
}
