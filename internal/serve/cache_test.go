package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"plum/internal/scenario"
)

// Crash-safety of the result cache: every way an entry can be damaged
// on disk — torn tail, truncation, bit flip, metadata corruption, a
// crash between the two renames — must read as a quarantined miss,
// never as served bytes.

func testBody() []byte {
	return RenderBody([]Row{
		{Kind: "epoch", Cycle: 0, Gain: 0.5, Cost: 0.1, Elems: 100},
		{Kind: "epoch", Cycle: 1, Gain: 0.6, Cost: 0.2, Elems: 120},
	}, 1.25, "deadbeef")
}

func openTestCache(t *testing.T) (*Cache, *Request) {
	t.Helper()
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c, &Request{P: 4, Cycles: 2, Seed: 9}
}

// scenarioRequest resolves {"scenario":"s"} against a one-spec corpus
// whose "s" runs the given number of cycles — the corpus file as it
// stood when the daemon loaded it.
func scenarioRequest(t *testing.T, cycles int) *Request {
	t.Helper()
	sp := &scenario.Spec{
		Name: "s", Kind: scenario.KindFront, Model: "flat",
		P: 4, Cycles: cycles, Frac: 0.12,
		Front: &scenario.FrontSpec{X0: 0.25, X1: 0.75, Width: 0.17, Radius: 0.35},
	}
	req := &Request{Scenario: "s"}
	if _, err := req.Spec([]*scenario.Spec{sp}); err != nil {
		t.Fatal(err)
	}
	return req
}

func mustPut(t *testing.T, c *Cache, req *Request, body []byte) {
	t.Helper()
	if err := c.Put(req, body, 2, 1.25); err != nil {
		t.Fatal(err)
	}
}

func TestCacheRoundtrip(t *testing.T) {
	c, req := openTestCache(t)
	if _, ok := c.Get(req); ok {
		t.Fatal("hit on an empty cache")
	}
	body := testBody()
	mustPut(t, c, req, body)
	got, ok := c.Get(req)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("get after put: ok=%v, bytes equal=%v", ok, bytes.Equal(got, body))
	}
	// A different request must not alias.
	other := &Request{P: 4, Cycles: 2, Seed: 10}
	if _, ok := c.Get(other); ok {
		t.Fatal("different seed hit the same entry")
	}
}

// corruptions maps a damage mode to the mutation that inflicts it.
func TestCacheCorruptionQuarantined(t *testing.T) {
	cases := []struct {
		name   string
		req    *Request // nil: openTestCache's shape request
		damage func(t *testing.T, c *Cache, req *Request)
	}{
		{"truncated body", nil, func(t *testing.T, c *Cache, req *Request) {
			d := req.Digest()
			fi, _ := os.Stat(c.bodyPath(d))
			if err := os.Truncate(c.bodyPath(d), fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped body", nil, func(t *testing.T, c *Cache, req *Request) {
			d := req.Digest()
			b, _ := os.ReadFile(c.bodyPath(d))
			b[len(b)/2] ^= 0x40
			os.WriteFile(c.bodyPath(d), b, 0o644)
		}},
		{"torn metadata", nil, func(t *testing.T, c *Cache, req *Request) {
			d := req.Digest()
			b, _ := os.ReadFile(c.metaPath(d))
			os.WriteFile(c.metaPath(d), b[:len(b)/2], 0o644)
		}},
		{"canon swapped", nil, func(t *testing.T, c *Cache, req *Request) {
			d := req.Digest()
			// Metadata of a different request copied under this digest —
			// the preimage check must catch the alias.
			other := &Request{P: 8, Cycles: 2}
			if err := c.Put(other, testBody(), 2, 1.25); err != nil {
				t.Fatal(err)
			}
			b, _ := os.ReadFile(c.metaPath(other.Digest()))
			os.WriteFile(c.metaPath(d), b, 0o644)
		}},
		{"body missing", nil, func(t *testing.T, c *Cache, req *Request) {
			os.Remove(c.bodyPath(req.Digest()))
		}},
		{"scenario spec changed", scenarioRequest(t, 4), func(t *testing.T, c *Cache, req *Request) {
			// The corpus file was edited and the daemon restarted: the same
			// name now resolves to different content, and the stored body
			// answers a spec that no longer exists.
			*req = *scenarioRequest(t, 5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, req := openTestCache(t)
			if tc.req != nil {
				req = tc.req
			}
			mustPut(t, c, req, testBody())
			tc.damage(t, c, req)
			if _, ok := c.Get(req); ok {
				t.Fatal("damaged entry served as a hit")
			}
			// Quarantine keeps the evidence out of the addressable namespace.
			if _, err := os.Stat(c.bodyPath(req.Digest())); err == nil {
				if _, err := os.Stat(c.metaPath(req.Digest())); err == nil {
					t.Fatal("damaged entry still fully addressable after Get")
				}
			}
			// Recompute-and-rewrite heals the entry.
			mustPut(t, c, req, testBody())
			if got, ok := c.Get(req); !ok || !bytes.Equal(got, testBody()) {
				t.Fatal("rewrite after quarantine did not heal the entry")
			}
		})
	}
}

func TestCacheSweepsInterruptedWrites(t *testing.T) {
	dir := t.TempDir()
	// A crash mid-write leaves a temp file behind.
	tmp := filepath.Join(dir, "abc.body.tmp12345")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("interrupted write survived OpenCache")
	}
}

func TestCacheFlushWritesIndex(t *testing.T) {
	c, req := openTestCache(t)
	mustPut(t, c, req, testBody())
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(c.dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(req.Digest())) {
		t.Fatalf("index.json does not name the entry: %s", b)
	}
}

func TestCacheDisabled(t *testing.T) {
	c, err := OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{P: 4, Cycles: 1}
	if err := c.Put(req, testBody(), 2, 1.0); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(req); ok {
		t.Fatal("disabled cache served a hit")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}
