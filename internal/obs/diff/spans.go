package diff

// Span-stream comparison: the blame half of a differential analysis.
// A span file (plumbench -spans) carries, per world stream, the
// per-epoch wait-blame summaries with their top-k sender-lag cells and
// contended edges — finer than the single top cell the ledger embeds.
// Diffing two streams answers "which rank×phase cell grew" with the
// full league table instead of one champion.
//
// Cells are a lower bound per cell (each epoch serializes only its
// top-k; the remainder folds into lag_other), so the diff carries the
// lag_other movement alongside the cell deltas to keep the total exact.

import (
	"fmt"
	"math"
	"sort"

	"plum/internal/event"
)

// LagCellDelta is one rank×phase sender-lag cell's movement, summed
// across a world's epochs.
type LagCellDelta struct {
	Rank  int     `json:"rank"`
	Phase string  `json:"phase"`
	Base  float64 `json:"base"`
	Cur   float64 `json:"cur"`
	Delta float64 `json:"delta"`
}

// EdgeDelta is one directed rank pair's queue+wire movement.
type EdgeDelta struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Base  float64 `json:"base"`
	Cur   float64 `json:"cur"`
	Delta float64 `json:"delta"`
}

// EpochBlameDelta is one aligned epoch's blame movement.
type EpochBlameDelta struct {
	Epoch int `json:"epoch"`
	CulpritsDelta
}

// SpanWorldDelta is the comparison of one aligned world stream pair.
type SpanWorldDelta struct {
	Label    string `json:"label"` // canonical key of the matched pair
	ModeFlip bool   `json:"mode_flip,omitempty"`
	P        int    `json:"p"`

	DSpans  int  `json:"d_spans"`  // span-count delta
	DEpochs int  `json:"d_epochs"` // blame-epoch delta
	Zero    bool `json:"zero"`

	Epochs []EpochBlameDelta `json:"epochs,omitempty"`
	// Cells/Edges: the largest absolute movers across all epochs.
	Cells     []LagCellDelta `json:"cells,omitempty"`
	DLagOther float64        `json:"d_lag_other,omitempty"`
	Edges     []EdgeDelta    `json:"edges,omitempty"`
}

// keyOfWorld is a span stream's run key: exp/model/run from the
// stream's label, P from its header.
func keyOfWorld(w *event.SpanWorld) RunKey {
	return RunKey{Exp: w.Label["exp"], Model: w.Label["model"], Run: w.Label["run"], P: w.P}
}

// Spans aligns two parsed span files world by world, by run key with
// the same two passes as Ledgers (every exact match first, then the
// pricing-mode wildcard), and diffs the blame tables of each aligned
// pair.  Unmatched worlds come out as one-sided deltas, base ones in
// base order and current ones last; SpanFindings turns them into
// findings.
func Spans(base, cur []event.SpanWorld, opt Options) []SpanWorldDelta {
	keys := func(ws []event.SpanWorld) []RunKey {
		ks := make([]RunKey, len(ws))
		for i := range ws {
			ks[i] = keyOfWorld(&ws[i])
		}
		return ks
	}
	match, curOnly := align(keys(base), keys(cur))
	var out []SpanWorldDelta
	for bi, ci := range match {
		b := &base[bi]
		if ci < 0 {
			out = append(out, SpanWorldDelta{
				Label: keyOfWorld(b).String(), P: b.P,
				DSpans: -len(b.Spans), DEpochs: -len(b.Blame),
			})
			continue
		}
		out = append(out, diffSpanWorld(b, &cur[ci], opt.topK()))
	}
	for _, ci := range curOnly {
		c := &cur[ci]
		out = append(out, SpanWorldDelta{
			Label: keyOfWorld(c).String(), P: c.P,
			DSpans: len(c.Spans), DEpochs: len(c.Blame),
		})
	}
	return out
}

func diffSpanWorld(b, c *event.SpanWorld, topK int) SpanWorldDelta {
	bk, ck := keyOfWorld(b), keyOfWorld(c)
	d := SpanWorldDelta{
		Label:    bk.String(),
		ModeFlip: bk != ck,
		P:        b.P,
		DSpans:   len(c.Spans) - len(b.Spans),
		DEpochs:  len(c.Blame) - len(b.Blame),
	}
	if d.ModeFlip {
		d.Label = fmt.Sprintf("%s vs %s", bk, ck)
	}

	cur := make(map[int]event.Culprits, len(c.Blame))
	for i := range c.Blame {
		cur[c.Blame[i].Epoch] = c.Blame[i].Culprits
	}
	for i := range b.Blame {
		eb := &b.Blame[i]
		if cc, ok := cur[eb.Epoch]; ok {
			if dc := culpritsDelta(eb.Culprits, cc); dc != (CulpritsDelta{}) {
				d.Epochs = append(d.Epochs, EpochBlameDelta{Epoch: eb.Epoch, CulpritsDelta: dc})
			}
		}
	}

	bl, cl := event.League(b.Blame), event.League(c.Blame)
	d.DLagOther = cl.LagOther - bl.LagOther
	for k := range union(bl.Lag, cl.Lag) {
		bv, cv := bl.Lag[k], cl.Lag[k]
		if bv == cv {
			continue
		}
		d.Cells = append(d.Cells, LagCellDelta{
			Rank: k.Rank, Phase: k.Phase, Base: bv, Cur: cv, Delta: cv - bv,
		})
	}
	sort.Slice(d.Cells, func(i, j int) bool {
		ai, aj := math.Abs(d.Cells[i].Delta), math.Abs(d.Cells[j].Delta)
		if ai != aj {
			return ai > aj
		}
		if d.Cells[i].Rank != d.Cells[j].Rank {
			return d.Cells[i].Rank < d.Cells[j].Rank
		}
		return d.Cells[i].Phase < d.Cells[j].Phase
	})
	if len(d.Cells) > topK {
		d.Cells = d.Cells[:topK]
	}

	for k := range union(bl.Edges, cl.Edges) {
		bv, cv := bl.Edges[k].Delay, cl.Edges[k].Delay
		if bv == cv {
			continue
		}
		d.Edges = append(d.Edges, EdgeDelta{Src: k[0], Dst: k[1], Base: bv, Cur: cv, Delta: cv - bv})
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		ai, aj := math.Abs(d.Edges[i].Delta), math.Abs(d.Edges[j].Delta)
		if ai != aj {
			return ai > aj
		}
		if d.Edges[i].Src != d.Edges[j].Src {
			return d.Edges[i].Src < d.Edges[j].Src
		}
		return d.Edges[i].Dst < d.Edges[j].Dst
	})
	if len(d.Edges) > topK {
		d.Edges = d.Edges[:topK]
	}

	d.Zero = !d.ModeFlip && d.DSpans == 0 && d.DEpochs == 0 &&
		len(d.Epochs) == 0 && len(d.Cells) == 0 && len(d.Edges) == 0 && d.DLagOther == 0
	return d
}

// union returns the set of keys present in a or b.
func union[K comparable, V any](a, b map[K]V) map[K]bool {
	keys := make(map[K]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	return keys
}

// SpanFiles reads and diffs two span files.
func SpanFiles(basePath, curPath string, opt Options) ([]SpanWorldDelta, error) {
	base, err := event.ReadSpansFile(basePath)
	if err != nil {
		return nil, err
	}
	cur, err := event.ReadSpansFile(curPath)
	if err != nil {
		return nil, err
	}
	return Spans(base, cur, opt), nil
}

// SpanFindings converts span deltas into ranked findings (appended to a
// ledger report's findings by the caller, re-ranked together).
func SpanFindings(deltas []SpanWorldDelta) []Finding {
	var fs []Finding
	for i := range deltas {
		d := &deltas[i]
		if d.Zero {
			continue
		}
		var worst float64
		for _, c := range d.Cells {
			if a := math.Abs(c.Delta); a > worst {
				worst = a
			}
		}
		for _, e := range d.Epochs {
			if a := math.Abs(e.DWait); a > worst {
				worst = a
			}
		}
		msg := fmt.Sprintf("spans %s: %d blame epoch(s) moved, %+d spans", d.Label, len(d.Epochs), d.DSpans)
		if len(d.Cells) > 0 {
			c := d.Cells[0]
			msg += fmt.Sprintf("; largest lag-cell shift r%d/%s %+.6fs (%.6f -> %.6f)",
				c.Rank, c.Phase, c.Delta, c.Base, c.Cur)
		}
		if len(d.Edges) > 0 {
			e := d.Edges[0]
			msg += fmt.Sprintf("; largest edge shift %d->%d %+.6fs", e.Src, e.Dst, e.Delta)
		}
		fs = append(fs, Finding{Kind: "blame", Run: d.Label, Epoch: -1, Severity: worst, Msg: msg})
	}
	return fs
}
