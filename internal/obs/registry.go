package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Host-plane metric registry: counters, gauges, and histograms with no
// external dependencies, cheap enough for the simulation runtime to
// feed and exportable as Prometheus text.  Values are atomics so the
// registry can be scraped live (plumserve /metrics) while worlds run
// concurrently; instruments are interned by (name, labels), so hot
// paths should hold the returned pointer rather than re-looking it up.

// A Counter is a monotonically increasing metric value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a point-in-time metric value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water update (calendar depth, mailbox population).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram counts observations into cumulative buckets with fixed
// upper bounds, plus a running sum — the Prometheus histogram model.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last bucket is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// TimeBuckets is the default bucket layout for wall-clock durations in
// seconds (world execution times span microseconds to minutes).
var TimeBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1, 5, 30, 120}

// Registry interns metric instruments by name + label set.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Default is the process-wide registry the runtime packages feed and
// the serve mode exports.  Only additive host-plane data lands here;
// nothing in the registry ever reaches a simulated clock.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// key renders the interning key: name alone, or name{k="v",...} with
// labels given as alternating key, value pairs in caller order (callers
// use one fixed order per metric, so no sorting is needed).
func key(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the counter for name and labels, creating it on first
// use.  Labels are alternating key, value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for name and labels with the given
// bucket bounds, creating it on first use; the bounds of an existing
// histogram are kept.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		r.hists[k] = h
	}
	return h
}

// Value returns the current value of the named counter or gauge, or 0
// when it was never created — so presentation code can read metrics it
// cannot be sure the run exercised.
func (r *Registry) Value(name string, labels ...string) float64 {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[k]; ok {
		return float64(c.Value())
	}
	if g, ok := r.gauges[k]; ok {
		return float64(g.Value())
	}
	return 0
}

// family returns the metric name without its label set.
func family(k string) string {
	if i := strings.IndexByte(k, '{'); i >= 0 {
		return k[:i]
	}
	return k
}

// withLabel splices one more label into an interning key (used to
// render histogram buckets' le label).
func withLabel(k, label string) string {
	if i := strings.IndexByte(k, '{'); i >= 0 {
		return k[:len(k)-1] + "," + label + "}"
	}
	return k + "{" + label + "}"
}

// WritePrometheus writes every instrument in the Prometheus text
// exposition format, sorted by name so output is stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	type entry struct {
		key  string
		line string
	}
	var counters, gauges []entry
	for k, c := range r.counters {
		counters = append(counters, entry{k, fmt.Sprintf("%s %d\n", k, c.Value())})
	}
	for k, g := range r.gauges {
		gauges = append(gauges, entry{k, fmt.Sprintf("%s %d\n", k, g.Value())})
	}
	type histEntry struct {
		key string
		h   *Histogram
	}
	var hists []histEntry
	for k, h := range r.hists {
		hists = append(hists, histEntry{k, h})
	}
	r.mu.Unlock()

	var err error
	emit := func(kind string, entries []entry) {
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		seen := ""
		for _, e := range entries {
			if err != nil {
				return
			}
			if f := family(e.key); f != seen {
				seen = f
				_, err = fmt.Fprintf(w, "# TYPE %s %s\n", f, kind)
				if err != nil {
					return
				}
			}
			_, err = io.WriteString(w, e.line)
		}
	}
	emit("counter", counters)
	emit("gauge", gauges)

	sort.Slice(hists, func(i, j int) bool { return hists[i].key < hists[j].key })
	seen := ""
	for _, he := range hists {
		if err != nil {
			return err
		}
		f := family(he.key)
		if f != seen {
			seen = f
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", f); err != nil {
				return err
			}
		}
		cum := int64(0)
		for i := range he.h.counts {
			cum += he.h.counts[i].Load()
			le := "+Inf"
			if i < len(he.h.bounds) {
				le = formatBound(he.h.bounds[i])
			}
			bk := withLabel(he.key, fmt.Sprintf("le=%q", le))
			if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", f, bk[len(f):], cum); err != nil {
				return err
			}
		}
		if _, err = fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", he.key, he.h.Sum(), he.key, he.h.Count()); err != nil {
			return err
		}
	}
	return err
}

func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// Snapshot flattens the registry into a name -> value map: counters and
// gauges verbatim, histograms as <name>_count and <name>_sum.  The map
// is the registry block a ledger embeds.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string]float64, len(r.counters)+len(r.gauges)+2*len(r.hists))
	for k, c := range r.counters {
		m[k] = float64(c.Value())
	}
	for k, g := range r.gauges {
		m[k] = float64(g.Value())
	}
	for k, h := range r.hists {
		m[k+"_count"] = float64(h.Count())
		m[k+"_sum"] = h.Sum()
	}
	return m
}
