package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"plum/internal/obs"
)

// The crash-safe content-addressed result cache.  Soundness rests on
// the repo's determinism pillar: a world's response body is a pure
// function of its canonical request, so a body stored under the
// request's digest answers every future identical request — there is no
// invalidation problem, only an integrity problem.  Integrity is
// handled by never trusting the disk:
//
//   - Writes are atomic: body and metadata land in a temp file in the
//     cache directory, are fsynced, and rename(2) into place.  A crash
//     mid-write leaves a temp file (swept on open), never a half entry.
//   - Reads verify: the stored canonical request must equal the asking
//     request's canon (digest preimage check — a sha256 collision or a
//     hand-edited file cannot alias), and the stored body must hash to
//     the stored checksum.  Any mismatch, torn tail, or unparsable
//     metadata quarantines the entry (renamed aside with a .quarantine
//     suffix, kept for forensics) and reports a miss; the daemon then
//     recomputes and rewrites it.
//
// An entry is two files under the digest prefix:
//
//	<digest>.body   the exact response bytes (NDJSON rows + trailer)
//	<digest>.meta   JSON: canon, body sha256, row count, sim time
type Cache struct {
	dir string

	mu    sync.Mutex
	known map[string]cacheMeta // digest -> verified-at-load or written meta

	hits, misses, corrupt *obs.Counter
}

// cacheMeta is the sidecar metadata of one entry.
type cacheMeta struct {
	Canon   string  `json:"canon"`
	BodySHA string  `json:"body_sha256"`
	Rows    int     `json:"rows"`
	SimTime float64 `json:"sim_time"`
}

// OpenCache opens (creating if needed) the cache directory and sweeps
// the debris of interrupted writes.  dir == "" disables caching: every
// Get misses, every Put is dropped.
func OpenCache(dir string) (*Cache, error) {
	c := &Cache{
		dir:     dir,
		known:   make(map[string]cacheMeta),
		hits:    obs.Default.Counter("plumserve_cache_total", "result", "hit"),
		misses:  obs.Default.Counter("plumserve_cache_total", "result", "miss"),
		corrupt: obs.Default.Counter("plumserve_cache_total", "result", "corrupt"),
	}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open cache: %w", err)
	}
	// A temp file is an interrupted write by definition (completed writes
	// renamed it away); sweeping keeps the directory listable forever.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	for _, t := range tmps {
		os.Remove(t)
	}
	return c, nil
}

// paths of the entry files for a digest.
func (c *Cache) bodyPath(digest string) string { return filepath.Join(c.dir, digest+".body") }
func (c *Cache) metaPath(digest string) string { return filepath.Join(c.dir, digest+".meta") }

// Get returns the stored body for the request, verifying the entry
// end to end.  ok reports a verified hit; a corrupt entry is
// quarantined and reported as a miss.
func (c *Cache) Get(req *Request) (body []byte, ok bool) {
	if c.dir == "" {
		c.misses.Inc()
		return nil, false
	}
	digest := req.Digest()
	mb, err := os.ReadFile(c.metaPath(digest))
	if err != nil {
		c.misses.Inc()
		return nil, false
	}
	var meta cacheMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		c.quarantine(digest, "unparsable metadata")
		return nil, false
	}
	if meta.Canon != req.canon {
		// Digest preimage mismatch: the entry is not what its name claims.
		c.quarantine(digest, "canonical request mismatch")
		return nil, false
	}
	body, err = os.ReadFile(c.bodyPath(digest))
	if err != nil {
		c.quarantine(digest, "metadata without body")
		return nil, false
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != meta.BodySHA {
		c.quarantine(digest, "body checksum mismatch")
		return nil, false
	}
	c.mu.Lock()
	c.known[digest] = meta
	c.mu.Unlock()
	c.hits.Inc()
	return body, true
}

// quarantine renames a failed entry's files aside (kept for forensics,
// out of the addressable namespace) and counts the corruption.
func (c *Cache) quarantine(digest, why string) {
	c.corrupt.Inc()
	for _, p := range []string{c.bodyPath(digest), c.metaPath(digest)} {
		if _, err := os.Stat(p); err == nil {
			os.Rename(p, p+".quarantine")
		}
	}
	fmt.Fprintf(os.Stderr, "plumserve: cache entry %s quarantined: %s\n", shortKey(digest), why)
	c.mu.Lock()
	delete(c.known, digest)
	c.mu.Unlock()
}

// Put stores a completed response body atomically.  Storage failure is
// non-fatal — the daemon can always recompute — so errors are returned
// for logging, not propagation to clients.
func (c *Cache) Put(req *Request, body []byte, rows int, simTime float64) error {
	if c.dir == "" {
		return nil
	}
	digest := req.Digest()
	if digest == "" {
		return fmt.Errorf("serve: cache put of a request that Spec did not resolve")
	}
	sum := sha256.Sum256(body)
	meta := cacheMeta{
		Canon:   req.canon,
		BodySHA: hex.EncodeToString(sum[:]),
		Rows:    rows,
		SimTime: simTime,
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	// Body first, then metadata: a crash between the two renames leaves a
	// body without metadata, which Get treats as a plain miss (the meta
	// file is the commit point).
	if err := atomicWrite(c.bodyPath(digest), body); err != nil {
		return err
	}
	if err := atomicWrite(c.metaPath(digest), append(mb, '\n')); err != nil {
		return err
	}
	c.mu.Lock()
	c.known[digest] = meta
	c.mu.Unlock()
	return nil
}

// atomicWrite lands data at path via temp + fsync + rename, so path
// either holds the complete bytes or its previous content.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// indexEntry is one line of the drain-time index.
type indexEntry struct {
	Digest  string  `json:"digest"`
	Rows    int     `json:"rows"`
	SimTime float64 `json:"sim_time"`
}

// Flush writes index.json — a sorted summary of every entry this
// process verified or wrote — via the same atomic path.  The index is
// documentation for operators (what is this cache holding?); Get never
// reads it, so a stale index cannot corrupt anything.
func (c *Cache) Flush() error {
	if c.dir == "" {
		return nil
	}
	c.mu.Lock()
	entries := make([]indexEntry, 0, len(c.known))
	for d, m := range c.known {
		entries = append(entries, indexEntry{Digest: d, Rows: m.Rows, SimTime: m.SimTime})
	}
	c.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Digest < entries[j].Digest })
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.Encode(entries)
	return atomicWrite(filepath.Join(c.dir, "index.json"), []byte(b.String()))
}
