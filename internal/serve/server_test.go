package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"plum/internal/core"
	"plum/internal/obs"
)

// The deterministic chaos harness: injected panics, slow-world stalls,
// cancel storms, and corrupted cache entries driven against a live
// server, asserting the daemon's availability invariants — clean
// requests succeed around faults, the process never dies, goroutines
// never leak, and every 200 body is byte-identical to the offline run
// of the same request.

// sharedExp builds the experiment harness once for the whole package;
// RunWorldCtx is read-only over it, so every test server can share it.
var (
	expOnce sync.Once
	expVal  *core.Experiments
)

func sharedExp() *core.Experiments {
	expOnce.Do(func() { expVal = core.NewExperiments(false) })
	return expVal
}

// newTestServer boots a server over httptest with chaos enabled and a
// per-test cache directory.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{CacheDir: t.TempDir(), Chaos: true}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := NewServer(sharedExp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

// post sends a request body and returns the response with its body read.
func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// get fetches path and returns the status code and body.
func get(t *testing.T, url, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// counter reads a labelled counter from the process-global registry.
func counter(name string, labels ...string) float64 {
	return obs.Default.Value(name, labels...)
}

func TestServeByteIdentityAndCache(t *testing.T) {
	_, hs := newTestServer(t, nil)
	const reqBody = `{"p":4,"cycles":2,"seed":11}`

	resp, served := post(t, hs.URL, reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, served)
	}
	if got := resp.Header.Get("X-Plum-Cache"); got != "miss" {
		t.Errorf("first request X-Plum-Cache = %q, want miss", got)
	}

	// The offline oracle: the same request through the same runner and
	// renderer, no daemon involved.
	req, err := ParseRequest(strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := req.Spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	run, err := sharedExp().RunWorldCtx(context.Background(), ws, func(ep core.FeedbackEpoch) {
		rows = append(rows, RowFromEpoch(ep))
	})
	if err != nil {
		t.Fatal(err)
	}
	offline := RenderBody(rows, run.SimTime, req.Digest())
	if !bytes.Equal(served, offline) {
		t.Fatalf("served body differs from the offline run:\nserved:  %s\noffline: %s", served, offline)
	}

	// Second request: a verified cache hit, byte-identical again.
	resp2, cached := post(t, hs.URL, reqBody)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Plum-Cache") != "hit" {
		t.Fatalf("second request: status %d, cache %q", resp2.StatusCode, resp2.Header.Get("X-Plum-Cache"))
	}
	if !bytes.Equal(cached, served) {
		t.Fatal("cache hit body differs from the originally served bytes")
	}
}

func TestServeCorruptCacheRecomputes(t *testing.T) {
	srv, hs := newTestServer(t, nil)
	const reqBody = `{"p":4,"cycles":1,"seed":12}`
	_, first := post(t, hs.URL, reqBody)

	// Flip a bit in the stored body, as a crash or disk fault would.
	req, _ := ParseRequest(strings.NewReader(reqBody))
	bp := srv.Cache().bodyPath(req.Digest())
	b, err := os.ReadFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x20
	os.WriteFile(bp, b, 0o644)

	corruptBefore := counter("plumserve_cache_total", "result", "corrupt")
	resp, second := post(t, hs.URL, reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after corruption", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Plum-Cache"); got != "miss" {
		t.Errorf("corrupt entry served as %q, want miss (recompute)", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("recomputed body differs from the original")
	}
	if d := counter("plumserve_cache_total", "result", "corrupt") - corruptBefore; d != 1 {
		t.Errorf("corrupt counter moved by %v, want 1", d)
	}
	// The damaged files were quarantined, and the healed entry now hits.
	if m, _ := filepath.Glob(filepath.Join(srv.cache.dir, "*.quarantine")); len(m) == 0 {
		t.Error("no quarantine files after corruption")
	}
	resp3, _ := post(t, hs.URL, reqBody)
	if resp3.Header.Get("X-Plum-Cache") != "hit" {
		t.Error("healed entry did not hit")
	}
}

func TestServeSingleflightCollapse(t *testing.T) {
	_, hs := newTestServer(t, nil)
	// The stall keeps the leader in flight long enough that the
	// duplicates must join it; chaos requests are never cached, so every
	// run of this test exercises the collapse, not the cache.
	const reqBody = `{"p":4,"cycles":1,"seed":13,"chaos":"stall@0:500"}`
	const dup = 4

	worldsBefore := counter("plum_worlds_started_total")
	leadersBefore := counter("plumserve_singleflight_total", "role", "leader")
	followersBefore := counter("plumserve_singleflight_total", "role", "follower")

	var wg sync.WaitGroup
	bodies := make([][]byte, dup)
	codes := make([]int, dup)
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/run", "application/json", strings.NewReader(reqBody))
			if err != nil {
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	for i := 0; i < dup; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	if d := counter("plum_worlds_started_total") - worldsBefore; d != 1 {
		t.Errorf("%v worlds simulated for %d identical requests, want exactly 1", d, dup)
	}
	if d := counter("plumserve_singleflight_total", "role", "leader") - leadersBefore; d != 1 {
		t.Errorf("leaders delta %v, want 1", d)
	}
	if d := counter("plumserve_singleflight_total", "role", "follower") - followersBefore; d != float64(dup-1) {
		t.Errorf("followers delta %v, want %d", d, dup-1)
	}
}

func TestServeInjectedPanicIsolated(t *testing.T) {
	_, hs := newTestServer(t, nil)

	// A clean request first, the fault, then clean again: availability
	// around the fault is the assertion.
	okBody := fmt.Sprintf(`{"p":4,"cycles":1,"seed":%d}`, 14)
	if resp, b := post(t, hs.URL, okBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-fault request: status %d: %s", resp.StatusCode, b)
	}

	resp, body := post(t, hs.URL, `{"p":4,"cycles":1,"seed":14,"chaos":"panic@0"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic: status %d, want 500: %s", resp.StatusCode, body)
	}
	var wire struct {
		Kind  string      `json:"kind"`
		Error *WorldError `json:"error"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("5xx body is not structured JSON: %v: %s", err, body)
	}
	if wire.Kind != "world_error" || wire.Error == nil {
		t.Fatalf("wire shape %+v", wire)
	}
	if wire.Error.Kind != "panic" || wire.Error.Rank != 0 {
		t.Errorf("fault attribution %+v, want panic on rank 0", wire.Error)
	}
	if len(wire.Error.Key) != 64 {
		t.Errorf("fault key %q is not a content address", wire.Error.Key)
	}

	if resp, b := post(t, hs.URL, okBody); resp.StatusCode != http.StatusOK ||
		resp.Header.Get("X-Plum-Cache") != "hit" {
		t.Fatalf("post-fault request: status %d cache %q: %s",
			resp.StatusCode, resp.Header.Get("X-Plum-Cache"), b)
	}
}

func TestServeDeadlineBeforeFirstRow(t *testing.T) {
	_, hs := newTestServer(t, nil)
	// A microscopic deadline expires before the first epoch closes, so
	// the cancellation surfaces as a status line, not a mid-stream line.
	resp, body := post(t, hs.URL, `{"p":4,"cycles":1,"seed":15,"timeout_seconds":0.001}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

func TestServeBackpressureSheds(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) { c.Workers = 1; c.Queue = 1 })

	// Four distinct slow requests against one worker and one queue slot:
	// at least one must shed with 429 + Retry-After.
	var wg sync.WaitGroup
	codes := make([]int, 4)
	retryAfter := make([]string, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"p":4,"cycles":1,"seed":%d,"chaos":"stall@0:400"}`, 100+i)
			resp, err := http.Post(hs.URL+"/run", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	shed, ok := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusTooManyRequests:
			shed++
			if sec, err := strconv.Atoi(retryAfter[i]); err != nil || sec < 1 {
				t.Errorf("shed response %d: Retry-After %q, want a positive integer", i, retryAfter[i])
			}
		case http.StatusOK:
			ok++
		}
	}
	if shed == 0 {
		t.Errorf("no request shed: codes %v", codes)
	}
	if ok == 0 {
		t.Errorf("no request served: codes %v", codes)
	}
}

func TestServeCancelStormNoLeak(t *testing.T) {
	_, hs := newTestServer(t, nil)
	base := runtime.NumGoroutine()

	// A storm of clients that vanish mid-run: each request's context is
	// cancelled while its world simulates.  The worlds must wind down
	// cooperatively, leaving no goroutines behind.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			body := fmt.Sprintf(`{"p":4,"cycles":8,"seed":%d}`, 200+i)
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/run", strings.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	// All three worlds must exit; settle before counting.
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak after cancel storm: %d vs base %d\n%s",
				runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The daemon still serves.
	if resp, b := post(t, hs.URL, `{"p":4,"cycles":1,"seed":16}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-storm request: status %d: %s", resp.StatusCode, b)
	}
}

func TestServeDrain(t *testing.T) {
	srv, hs := newTestServer(t, nil)

	if resp, err := http.Get(hs.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if code, body := get(t, hs.URL, "/healthz"); code != http.StatusOK || body != `{"status":"running"}`+"\n" {
		t.Errorf("healthz before drain: status %d, body %q", code, body)
	}

	// A slow request in flight when the drain begins must complete with
	// its full body — drain waits, it does not kill.
	type result struct {
		code int
		body []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/run", "application/json",
			strings.NewReader(`{"p":4,"cycles":1,"seed":17,"chaos":"stall@0:600"}`))
		if err != nil {
			inflight <- result{}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- result{resp.StatusCode, b}
	}()
	time.Sleep(200 * time.Millisecond) // let it enter the world

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()

	// readyz flips promptly, well before the in-flight world finishes.
	flipDeadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				break
			}
		}
		if time.Now().After(flipDeadline) {
			t.Fatal("readyz did not flip to 503 during drain")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// New work is refused while draining; the process still answers
	// /healthz, reporting the drain.
	if resp, _ := post(t, hs.URL, `{"p":4,"cycles":1,"seed":18}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request during drain: status %d, want 503", resp.StatusCode)
	}
	if code, body := get(t, hs.URL, "/healthz"); code != http.StatusOK || body != `{"status":"draining"}`+"\n" {
		t.Errorf("healthz during drain: status %d, body %q", code, body)
	}

	r := <-inflight
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d: %s", r.code, r.body)
	}
	if !bytes.Contains(r.body, []byte(`"kind":"end"`)) {
		t.Fatalf("in-flight body incomplete: %s", r.body)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The cache index flushed on the way out.
	if _, err := os.Stat(filepath.Join(srv.cache.dir, "index.json")); err != nil {
		t.Errorf("no cache index after drain: %v", err)
	}
}

// TestServeHostPlane: the daemon mounts the host plane — metrics and
// the Go profiler — beside /run, and nothing else: the run-file
// endpoints of the retired second server are gone.
func TestServeHostPlane(t *testing.T) {
	_, hs := newTestServer(t, nil)
	cases := []struct {
		path string
		code int
		want string // substring of the body
	}{
		{"/metrics", http.StatusOK, "plumserve_requests_total"},
		{"/healthz", http.StatusOK, `"status"`},
		{"/debug/pprof/cmdline", http.StatusOK, ""},
		{"/runs", http.StatusNotFound, ""},
		{"/spans", http.StatusNotFound, ""},
		{"/diff", http.StatusNotFound, ""},
	}
	for _, tc := range cases {
		code, body := get(t, hs.URL, tc.path)
		if code != tc.code || !strings.Contains(body, tc.want) {
			t.Errorf("GET %s: status %d (want %d), body lacks %q: %.200s",
				tc.path, code, tc.code, tc.want, body)
		}
	}
}

func TestServeChaosRefusedWhenDisabled(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) { c.Chaos = false })
	resp, _ := post(t, hs.URL, `{"p":4,"cycles":1,"chaos":"panic@0"}`)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("chaos on a production server: status %d, want 403", resp.StatusCode)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, hs := newTestServer(t, nil)
	for body, want := range map[string]int{
		`{"p":4,"cycels":2}`:     http.StatusBadRequest,
		`{"p":-1}`:               http.StatusBadRequest,
		`{"mapper":"nope"}`:      http.StatusBadRequest,
		`{"chaos":"explode@2"}`:  http.StatusBadRequest,
		`{"scenario":"missing"}`: http.StatusBadRequest,
	} {
		if resp, b := post(t, hs.URL, body); resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d: %s", body, resp.StatusCode, want, b)
		}
	}
	resp, err := http.Get(hs.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", resp.StatusCode)
	}
}
