package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plum/internal/core"
	"plum/internal/scenario"
)

// TestOneshotGolden pins the bytes plumserve answers with — absolutely,
// against committed bodies, not just served ≡ -oneshot (two calls of the
// same runner agree however far both have drifted).  Each
// testdata/<name>.json request is replayed through runOneshot and must
// reproduce testdata/<name>.golden.ndjson whole: every epoch row, the
// simulated makespan, and the trailer digest, for the default implicit
// shape, an explicit measured fat-tree run under the topology-aware
// mapper, and corpus scenarios under both pricing modes.  A scenario
// body's digest is its spec's content address, so editing a corpus spec
// that a golden names fails here.
//
// The goldens' rows were cut before the four epoch loops were folded
// into one runner and are not to be regenerated for a refactor.
func TestOneshotGolden(t *testing.T) {
	specs, err := scenario.LoadDir(filepath.Join("..", "..", "ci", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	exp := core.NewExperiments(false)
	reqs, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(reqs) == 0 {
		t.Fatalf("no committed requests under testdata (%v)", err)
	}
	for _, path := range reqs {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			req, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden.ndjson"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := runOneshot(exp, specs, false, bytes.NewReader(req), &stdout, &stderr); code != 0 {
				t.Fatalf("runOneshot exited %d: %s", code, stderr.String())
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("served bytes moved:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
