package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestParseRequestStrict(t *testing.T) {
	for _, bad := range []string{
		`{"p":4,"cycels":2}`, // misspelled field
		`{"p":"four"}`,       // type mismatch
		`{"p":4}{"p":8}`,     // trailing object
		`{"p":4} garbage`,    // trailing junk
		`[1,2,3]`,            // not an object
		`{"p":4,"unknown":"field"}`,
	} {
		if _, err := ParseRequest(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseRequest accepted %q", bad)
		}
	}
	req, err := ParseRequest(strings.NewReader(`{"p":4,"cycles":2,"mapper":"opt"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.P != 4 || req.Cycles != 2 || req.Mapper != "opt" {
		t.Errorf("parsed %+v", req)
	}
}

// TestRequestDigest pins serve's own identity rules; what moves a
// world's digest is core.WorldSpec's to decide (TestWorldSpecDigest).
func TestRequestDigest(t *testing.T) {
	// Defaults are canonical: the empty request and its spelled-out form
	// share an address.
	a := (&Request{}).Digest()
	b := (&Request{P: 8, Cycles: 4, Mapper: "heu", Workload: "implicit"}).Digest()
	if a != b {
		t.Error("defaulted and spelled-out requests got different digests")
	}
	if len(a) != 64 {
		t.Errorf("digest length %d, want 64 hex chars", len(a))
	}
	// Chaos moves the address; timeout does not.
	base := Request{P: 4, Cycles: 2}
	chaos := Request{P: 4, Cycles: 2, Chaos: "panic@0"}
	if chaos.Digest() == base.Digest() {
		t.Error("chaos did not change the digest: a fault run could answer a clean request")
	}
	to := Request{P: 4, Cycles: 2, TimeoutSeconds: 9}
	if to.Digest() != base.Digest() {
		t.Error("timeout_seconds changed the digest: a host-plane knob leaked into the canon")
	}
}

// TestDigestAfterSpecAllocsNothing: Spec renders the identity once; a
// cache hit's Digest and preimage check read it back for free.
func TestDigestAfterSpecAllocsNothing(t *testing.T) {
	req := &Request{P: 4, Cycles: 2, Seed: 7}
	if _, err := req.Spec(nil); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { req.Digest() }); n != 0 {
		t.Errorf("Digest after Spec allocates %v times, want 0", n)
	}
}

func TestRequestSpecValidation(t *testing.T) {
	for name, body := range map[string]string{
		"bad mapper":        `{"mapper":"nope"}`,
		"bad workload":      `{"workload":"quantum"}`,
		"p out of range":    `{"p":9999}`,
		"unknown scenario":  `{"scenario":"missing"}`,
		"scenario plus p":   `{"scenario":"s","p":4}`,
		"scenario and seed": `{"scenario":"s","seed":3}`,
	} {
		req, err := ParseRequest(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if _, err := req.Spec(nil); err == nil {
			t.Errorf("%s: Spec accepted %s", name, body)
		}
	}
}

func TestParseChaos(t *testing.T) {
	good := map[string]chaosSpec{
		"panic@0":     {kind: "panic", epoch: 0},
		"panic@3":     {kind: "panic", epoch: 3},
		"stall@1:250": {kind: "stall", epoch: 1, stallMS: 250},
		"stall@0:0":   {kind: "stall"},
	}
	for s, want := range good {
		got, err := parseChaos(s)
		if err != nil || got != want {
			t.Errorf("parseChaos(%q) = %+v, %v; want %+v", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "panic", "panic@", "panic@-1", "stall@1", "stall@1:999999", "explode@2", "panic@x"} {
		if _, err := parseChaos(bad); err == nil {
			t.Errorf("parseChaos accepted %q", bad)
		}
	}
}

func TestRenderBodyShape(t *testing.T) {
	body := RenderBody([]Row{{Kind: "epoch", Cycle: 0}}, 2.5, "abc")
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[1], `"kind":"end"`) || !strings.Contains(lines[1], `"rows":1`) {
		t.Errorf("trailer %q", lines[1])
	}
}

// FuzzParseRequest: ParseRequest and Spec decode untrusted request
// bodies (POST /run, plumserve -oneshot).  No input may panic the
// decoder, the resolver or the chaos parser, and no world starts.  A
// request Spec accepts gets a 64-hex digest that a second Spec keeps,
// and re-encoding it and decoding that again names the same world.
func FuzzParseRequest(f *testing.F) {
	seeds, err := filepath.Glob("../../cmd/plumserve/testdata/*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed requests: %v", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"p":2,"cycles":1,"chaos":"stall@1:250"}`))
	f.Add([]byte(`{"p":16,"frac":0.3,"coarsen_below":0.01,"chaos":"panic@0"}`))
	hex64 := regexp.MustCompile(`^[0-9a-f]{64}$`)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		parseChaos(req.Chaos)
		if _, err := req.Spec(nil); err != nil {
			if req.Digest() != "" {
				t.Fatalf("rejected request (%v) has digest %q", err, req.Digest())
			}
			return
		}
		digest := req.Digest()
		if !hex64.MatchString(digest) {
			t.Fatalf("digest %q is not 64 hex digits", digest)
		}
		if _, err := req.Spec(nil); err != nil || req.Digest() != digest {
			t.Fatalf("second Spec: err %v, digest %q, want %q", err, req.Digest(), digest)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		req2, err := ParseRequest(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded request %s: %v", again, err)
		}
		if _, err := req2.Spec(nil); err != nil || req2.Digest() != digest {
			t.Fatalf("re-encoded request %s: err %v, digest %q, want %q", again, err, req2.Digest(), digest)
		}
	})
}
