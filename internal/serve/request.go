package serve

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"plum/internal/core"
	"plum/internal/scenario"
)

// The request schema of POST /run.  A request names one simulated
// world; the world's canon (core.WorldSpec.Canonical) is the content
// address of the result, so two requests resolving to one world are
// answered by one simulation ever (singleflight while in flight, the
// result cache afterwards).  Host-plane knobs (timeout, chaos
// injection) are not part of the world — but chaos is appended to the
// request's canon, so an injected-fault run can never answer a clean
// request.

// Request is the JSON body of POST /run.
type Request struct {
	// P is the simulated processor count (default 8).
	P int `json:"p,omitempty"`
	// Cycles is the number of adapt-balance-solve epochs (default 4);
	// one result row streams back per completed epoch.
	Cycles int `json:"cycles,omitempty"`
	// Model selects the machine topology: flat, smp, fattree, hetero,
	// or empty for the uniform SP2.
	Model string `json:"model,omitempty"`
	// Mapper selects processor reassignment: heu (default), opt, bmcm,
	// or topo.
	Mapper string `json:"mapper,omitempty"`
	// Workload selects the solver between adaptions: implicit (default)
	// or explicit.
	Workload string `json:"workload,omitempty"`
	// Measured prices each epoch's gain/cost decision from the previous
	// epoch's measured profile instead of the analytic model.
	Measured bool `json:"measured,omitempty"`
	// Frac / CoarsenBelow tune the refinement dynamics (zero: the
	// feedback experiment's defaults).
	Frac         float64 `json:"frac,omitempty"`
	CoarsenBelow float64 `json:"coarsen_below,omitempty"`
	// Seed phase-shifts the moving-feature indicator deterministically;
	// distinct seeds are distinct simulations.
	Seed int64 `json:"seed,omitempty"`
	// Scenario runs a named workload spec from the server's corpus
	// instead of the moving-shock dynamics; P, Cycles, Model, Mapper,
	// Frac, and CoarsenBelow then come from the spec and must be left
	// zero here.  The world is addressed by the spec's content
	// (scenario.Spec.Digest), so editing the corpus file moves the
	// digest even though the name stays.
	Scenario string `json:"scenario,omitempty"`

	// TimeoutSeconds is the per-request simulation deadline (host
	// seconds; 0 = the server default).  Not part of the canon: it
	// bounds how long the answer may take, not what the answer is.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`

	// Chaos injects a deterministic fault for robustness testing and is
	// refused unless the server runs with chaos enabled:
	//
	//	panic@N     panic inside the world when epoch N completes
	//	stall@N:MS  sleep MS host-milliseconds at epoch N (deadline fuel)
	Chaos string `json:"chaos,omitempty"`

	// canon and digest are the resolved identity Spec keeps: the
	// world's canon plus the chaos suffix, and its hex SHA-256.
	canon, digest string
}

// ParseRequest decodes a strict request body: unknown fields, type
// mismatches, and trailing data are errors (a daemon must not guess).
func ParseRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	req := new(Request)
	if err := dec.Decode(req); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after the request object")
	}
	return req, nil
}

// Spec validates the request, resolves it to a runnable WorldSpec, and
// keeps its identity (the world's canon plus the chaos suffix, and its
// digest).  corpus is the server's scenario corpus (nil when none).
func (r *Request) Spec(corpus []*scenario.Spec) (core.WorldSpec, error) {
	r.canon, r.digest = "", ""
	ws, err := r.resolve(corpus)
	if err != nil {
		return ws, err
	}
	r.canon = ws.Canonical()
	if r.Chaos != "" {
		r.canon += "|chaos=" + r.Chaos
	}
	sum := sha256.Sum256([]byte(r.canon))
	r.digest = hex.EncodeToString(sum[:])
	return ws, nil
}

// resolve builds and validates the request's WorldSpec, filling the
// shape defaults (p=8, cycles=4, mapper=heu, workload=implicit).
func (r *Request) resolve(corpus []*scenario.Spec) (core.WorldSpec, error) {
	var ws core.WorldSpec
	if r.Scenario != "" {
		sp, err := scenario.Find(corpus, r.Scenario)
		if err != nil {
			return ws, err
		}
		if r.P != 0 || r.Cycles != 0 || r.Model != "" || r.Mapper != "" ||
			r.Workload != "" || r.Frac != 0 || r.CoarsenBelow != 0 {
			return ws, fmt.Errorf("a scenario request takes its world shape from the spec;" +
				" leave p, cycles, model, mapper, workload, frac, and coarsen_below unset")
		}
		ws = core.WorldSpec{Scenario: sp, Measured: r.Measured, Seed: r.Seed}
		return ws, ws.Validate()
	}
	mapper, err := core.ParseMapper(r.Mapper)
	if err != nil {
		return ws, err
	}
	workload := core.WorkloadImplicit
	switch r.Workload {
	case "", "implicit":
	case "explicit":
		workload = core.WorkloadExplicit
	default:
		return ws, fmt.Errorf("unknown workload %q (explicit, implicit)", r.Workload)
	}
	ws = core.WorldSpec{
		P:            cmp.Or(r.P, 8),
		Cycles:       cmp.Or(r.Cycles, 4),
		Model:        r.Model,
		Mapper:       mapper,
		Workload:     workload,
		Measured:     r.Measured,
		Frac:         r.Frac,
		CoarsenBelow: r.CoarsenBelow,
		Seed:         r.Seed,
	}
	return ws, ws.Validate()
}

// Digest is the hex content address of the request: the cache key, the
// singleflight key, and the run key of every error the request
// produces.  It returns what Spec kept, resolving against no corpus
// first if Spec has not run; a request Spec rejects has none ("").
func (r *Request) Digest() string {
	if r.digest == "" {
		r.Spec(nil)
	}
	return r.digest
}

// ---------------------------------------------------------------------
// The response stream.

// Row is one streamed result line: a completed adaption epoch.  Rows
// stream back as epochs complete, newline-delimited JSON, in cycle
// order.
type Row struct {
	Kind         string  `json:"kind"` // always "epoch"
	Cycle        int     `json:"cycle"`
	Balanced     bool    `json:"balanced"`
	Accepted     bool    `json:"accepted"`
	Measured     bool    `json:"measured"` // decision priced from a profile
	Gain         float64 `json:"gain"`
	Cost         float64 `json:"cost"`
	TotalV       int64   `json:"total_v"`
	MaxV         int64   `json:"max_v"`
	Elems        int     `json:"elems"`
	SolveSeconds float64 `json:"solve_seconds"`
}

// Trailer is the final line of a successful response: the row count, the
// end-to-end simulated makespan, and the request digest the result is
// content-addressed under.  Deliberately free of host-plane facts
// (cache hit/miss travels in the X-Plum-Cache header) so response
// bodies are byte-identical however they were produced.
type Trailer struct {
	Kind    string  `json:"kind"` // always "end"
	Rows    int     `json:"rows"`
	SimTime float64 `json:"sim_time"`
	Digest  string  `json:"digest"`
}

// RowFromEpoch flattens one epoch into its wire row.
func RowFromEpoch(ep core.FeedbackEpoch) Row {
	return Row{
		Kind:         "epoch",
		Cycle:        ep.Cycle,
		Balanced:     ep.Balanced,
		Accepted:     ep.Accepted,
		Measured:     ep.Measured,
		Gain:         ep.Gain,
		Cost:         ep.Cost,
		TotalV:       ep.TotalV,
		MaxV:         ep.MaxV,
		Elems:        ep.Elems,
		SolveSeconds: ep.SolveTime,
	}
}

// marshalLine renders one NDJSON line.  json.Marshal over these fixed
// struct shapes cannot fail; a failure is a programming error.
func marshalLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal %T: %v", v, err))
	}
	return append(b, '\n')
}

// RenderBody renders the full success body for a row set: one line per
// row plus the trailer.  The streaming handler emits exactly these
// bytes line by line, the cache verifies its entries against their
// sha256, and the offline replay (plumserve -oneshot) prints them — one
// definition, three consumers, byte-identical by construction.
func RenderBody(rows []Row, simTime float64, digest string) []byte {
	var b []byte
	for _, r := range rows {
		b = append(b, marshalLine(r)...)
	}
	b = append(b, marshalLine(Trailer{Kind: "end", Rows: len(rows), SimTime: simTime, Digest: digest})...)
	return b
}
