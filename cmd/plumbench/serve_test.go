package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"plum/internal/event"
	"plum/internal/msg"
	"plum/internal/obs"
)

// TestServeConcurrentScrape hammers every read endpoint from several
// goroutines while simulation worlds run and flush registry counters —
// the exact overlap a live CI scrape produces.  CI's race step runs
// this under -race; the assertion is freedom from data races plus
// well-formed responses throughout.
func TestServeConcurrentScrape(t *testing.T) {
	dir := t.TempDir()

	// A real ledger for /runs ...
	ledgerPath := filepath.Join(dir, "run.jsonl")
	l, err := obs.Create(ledgerPath, obs.Manifest{Tool: "serve_test"})
	if err != nil {
		t.Fatal(err)
	}
	l.Add(obs.EpochRecord{Kind: "epoch", Exp: "test", P: 2})
	if err := l.Close(nil, ""); err != nil {
		t.Fatal(err)
	}
	// ... and a real span stream for /spans.
	spansPath := filepath.Join(dir, "spans.jsonl")
	sf, err := os.Create(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	sl := event.NewSpanLog(2, event.SpanOptions{
		Sink:  sf,
		Label: map[string]string{"exp": "serve_test"},
	})
	sl.Begin(0, event.PhaseSolve, 0)
	sl.End(0, 1)
	sl.CutEpoch(nil)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}

	// Seed the registry so the first /metrics scrape already sees the
	// message counters the concurrent worlds keep bumping.
	worldBurst := func() {
		msg.RunModel(4, msg.SP2Model(), func(c *msg.Comm) {
			c.Compute(10)
			c.AllreduceInt64(int64(c.Rank()), msg.SumInt64)
		})
	}
	worldBurst()

	s, err := startServe("127.0.0.1:0", ledgerPath, spansPath)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.addr

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	scrape := func(path, want string) {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get(base + path)
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
				return
			}
			if !strings.Contains(string(body), want) {
				errs <- fmt.Errorf("%s: response lacks %q: %s", path, want, body)
				return
			}
		}
	}
	wg.Add(5)
	go scrape("/metrics", "plum_msg_messages_total")
	go scrape("/runs", "run.jsonl")
	go scrape("/spans", "serve_test")
	go scrape("/healthz", "running")
	// Self-diff via the endpoint: the served ledger vs itself must
	// report exact zero deltas.
	go scrape("/diff?base=run.jsonl", "no differences")

	// Meanwhile, worlds run and flush their counters into the registry
	// the /metrics goroutine is reading.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			worldBurst()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s.done.Store(true)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "done") {
		t.Errorf("healthz after done = %s", body)
	}
}

// TestServeDiffEndpoint exercises /diff beyond the happy path: formats,
// the directory confinement, and the missing-base error.
func TestServeDiffEndpoint(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "cur.jsonl")
	l, err := obs.Create(ledgerPath, obs.Manifest{Tool: "serve_test", ConfigDigest: "d1"})
	if err != nil {
		t.Fatal(err)
	}
	l.Add(obs.EpochRecord{Kind: "epoch", Exp: "test", P: 2, SolveSeconds: 2.0})
	if err := l.Close(nil, ""); err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "base.jsonl")
	b, err := obs.Create(basePath, obs.Manifest{Tool: "serve_test", ConfigDigest: "d1"})
	if err != nil {
		t.Fatal(err)
	}
	b.Add(obs.EpochRecord{Kind: "epoch", Exp: "test", P: 2, SolveSeconds: 1.0})
	if err := b.Close(nil, ""); err != nil {
		t.Fatal(err)
	}

	s, err := startServe("127.0.0.1:0", ledgerPath, "")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + s.addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := get("/diff?base=base.jsonl"); code != http.StatusOK ||
		!strings.Contains(body, "+1.000000") {
		t.Errorf("text diff: status %d, body %s", code, body)
	}
	if code, body := get("/diff?base=base.jsonl&format=json"); code != http.StatusOK ||
		!strings.Contains(body, `"d_time": 1`) {
		t.Errorf("json diff: status %d, body %s", code, body)
	}
	if code, body := get("/diff?base=base.jsonl&format=md"); code != http.StatusOK ||
		!strings.Contains(body, "### Differential run analysis") {
		t.Errorf("md diff: status %d, body %s", code, body)
	}
	if code, _ := get("/diff?base=../escape.jsonl"); code != http.StatusBadRequest {
		t.Errorf("path escape: status %d, want 400", code)
	}
	if code, _ := get("/diff?base=nope.jsonl"); code != http.StatusServiceUnavailable {
		t.Errorf("missing base: status %d, want 503", code)
	}
	if code, _ := get("/diff"); code != http.StatusBadRequest {
		t.Errorf("no base: status %d, want 400", code)
	}
}
