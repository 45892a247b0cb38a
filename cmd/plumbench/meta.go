package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"plum/internal/obs"
)

// Run-manifest assembly: everything that names a plumbench run.  The
// config digest hashes the knobs that change simulated output, so two
// ledgers are comparable exactly when their digests match; the host
// fields (git, Go version, CPU count) describe the producing machine
// without influencing any epoch record.

// gitRevision returns the VCS revision of the producing build: the
// revision stamped into the binary by the Go toolchain when built
// inside a checkout, else the checkout's HEAD when running from source
// (go run), else "unknown".
func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if rev := strings.TrimSpace(string(out)); err == nil && rev != "" {
		return rev
	}
	return "unknown"
}

// configDigest hashes the run configuration that determines simulated
// output.  Host parallelism is deliberately excluded: runs with equal
// digests must produce byte-identical epoch records regardless of
// GOMAXPROCS.  The scenario selection (scenarioIDs) extends the canon
// only when present, so every pre-scenario digest (and with it the
// committed baseline ledgers) stays valid.
func configDigest(paper bool, exp, model string, measured bool, elems int, ps []int, scen []string) string {
	canon := fmt.Sprintf("v%d|paper=%v|exp=%s|model=%s|measured=%v|elems=%d|ps=%v",
		obs.SchemaVersion, paper, exp, model, measured, elems, ps)
	if len(scen) > 0 {
		canon += fmt.Sprintf("|scenarios=%v", scen)
	}
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:8])
}

// buildManifest fills the ledger's first record.
func buildManifest(paper bool, exp, model string, measured bool, elems int, ps []int, scen []string) obs.Manifest {
	return obs.Manifest{
		Tool:         "plumbench",
		ConfigDigest: configDigest(paper, exp, model, measured, elems, ps, scen),
		Git:          gitRevision(),
		GoVersion:    runtime.Version(),
		GoOS:         runtime.GOOS,
		GoArch:       runtime.GOARCH,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Start:        time.Now().UTC().Format(time.RFC3339),
	}
}
