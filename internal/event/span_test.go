package event

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// TestReadSpansRoundTrip: a stream with a blame line parses back with
// every field intact, its cut written rank-major whatever order the
// window held the spans in.
func TestReadSpansRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewSpanLog(&buf, 2, map[string]string{"exp": "test", "p": "2"})
	blame := &BlameReport{P: 2, Wait: 1.25}
	blame.ByKind[BlameContention] = 1.25
	blame.Lag = make([][]float64, 2)
	for i := range blame.Lag {
		blame.Lag[i] = make([]float64, NumPhases)
	}
	s.Cut([]Span{
		{Rank: 1, Phase: PhaseMigrate, T0: 1.5, T1: 3},
		{Rank: 0, Phase: PhaseRepartition, T0: 1, T1: 2},
	}, blame)
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}

	worlds, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(worlds) != 1 {
		t.Fatalf("got %d worlds, want 1", len(worlds))
	}
	w := worlds[0]
	if w.P != 2 || w.Label["exp"] != "test" || !w.Complete {
		t.Errorf("world header = %+v", w)
	}
	if len(w.Spans) != 2 || w.Spans[0].Phase != PhaseRepartition || w.Spans[1].Phase != PhaseMigrate {
		t.Errorf("spans = %+v", w.Spans)
	}
	if len(w.Blame) != 1 || w.Blame[0].Contention != 1.25 || w.Blame[0].Wait != 1.25 {
		t.Errorf("blame = %+v", w.Blame)
	}
	if w.Epochs != 1 || w.Written != 2 {
		t.Errorf("trailer: epochs=%d written=%d", w.Epochs, w.Written)
	}

	// Streams written by older builds carry the span-ring bound and the
	// sampling fields in the header and trailer; they must parse to the
	// same worlds.
	old := strings.Replace(buf.String(), `"p":2,`, `"p":2,"ring":2048,"sample":0,`, 1)
	old = strings.Replace(old, `"spans":2}`, `"spans":2,"sampled`+`_out":0}`, 1)
	if strings.Count(old, "sampl") != 2 || !strings.Contains(old, `"ring":2048`) {
		t.Fatalf("legacy fields not spliced in:\n%s", old)
	}
	legacy, err := ReadSpans(strings.NewReader(old))
	if err != nil {
		t.Fatalf("stream with legacy sampling fields: %v", err)
	}
	if !reflect.DeepEqual(legacy, worlds) {
		t.Errorf("legacy-field stream parsed differently:\n got %+v\nwant %+v", legacy, worlds)
	}
}

// TestReadSpansTruncation: a stream cut off mid-line or before its end
// trailer parses as Complete=false with everything before the cut
// intact; corruption in the middle still fails.
func TestReadSpansTruncation(t *testing.T) {
	var buf bytes.Buffer
	s := NewSpanLog(&buf, 1, nil)
	s.Cut([]Span{{Phase: PhaseSolve, T0: 0, T1: 1}, {Phase: PhaseSolve, T0: 2, T1: 3}}, nil)
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Drop the end trailer.
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	noEnd := append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	worlds, err := ReadSpans(bytes.NewReader(noEnd))
	if err != nil {
		t.Fatalf("missing end trailer should parse leniently: %v", err)
	}
	if worlds[0].Complete || len(worlds[0].Spans) != 2 {
		t.Errorf("truncated stream: complete=%v spans=%d", worlds[0].Complete, len(worlds[0].Spans))
	}

	// Tear the final line in half.
	torn := full[:len(full)-8]
	worlds, err = ReadSpans(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn final line should parse leniently: %v", err)
	}
	if worlds[0].Complete {
		t.Error("torn stream parsed as complete")
	}

	// Corrupt a line in the middle: that is damage, not truncation.
	corrupt := append([]byte{}, lines[0]...)
	corrupt = append(corrupt, "\n{broken\n"...)
	corrupt = append(corrupt, bytes.Join(lines[1:], []byte("\n"))...)
	corrupt = append(corrupt, '\n')
	if _, err := ReadSpans(bytes.NewReader(corrupt)); err == nil {
		t.Error("mid-file corruption parsed without error")
	}

	// An empty file is an error, not an empty result.
	if _, err := ReadSpans(bytes.NewReader(nil)); err == nil {
		t.Error("empty file parsed without error")
	}
}

// TestSpanMultiStream: a file concatenating two world streams (what a
// multi-world plumbench run writes) parses as two worlds.
func TestSpanMultiStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 2; i++ {
		s := NewSpanLog(&buf, 1, nil)
		s.Cut([]Span{{Phase: PhaseCollective, T0: 0, T1: 1}}, nil)
		if err := s.Close(nil); err != nil {
			t.Fatal(err)
		}
	}
	worlds, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(worlds) != 2 || !worlds[0].Complete || !worlds[1].Complete {
		t.Fatalf("got %d worlds (complete: %v, %v), want 2 complete",
			len(worlds), worlds[0].Complete, worlds[len(worlds)-1].Complete)
	}
}

// FuzzReadSpans: the span reader faces files a killed producer left
// behind and files from other builds.  No input may panic it, and for any input it accepts, tearing
// the final line in half is truncation, not corruption: the torn file
// still parses, to exactly the worlds of the whole lines before the
// tear, and the stream the tear landed in is not Complete.
func FuzzReadSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadSpans(bytes.NewReader(data)); err != nil {
			return
		}
		// The last non-blank line, as the reader sees it.
		body := bytes.TrimRightFunc(data, unicode.IsSpace)
		start := bytes.LastIndexByte(body, '\n') + 1
		last := bytes.TrimSpace(body[start:])
		var probe struct {
			K string `json:"k"`
		}
		if json.Unmarshal(last, &probe) != nil {
			return // already torn (or blank): no whole line to tear
		}
		torn := body[:len(body)-(len(last)+1)/2]

		got, err := ReadSpans(bytes.NewReader(torn))
		if err != nil {
			t.Fatalf("torn final line rejected: %v\n%q", err, torn)
		}
		// The whole lines before the tear; with no stream among them the
		// reader reports an error where the torn file yields no worlds.
		want, err := ReadSpans(bytes.NewReader(body[:start]))
		if err != nil {
			want = nil
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("torn file lost its prefix:\n got %+v\nwant %+v\n%q", got, want, torn)
		}
		if probe.K != "hdr" && (len(got) == 0 || got[len(got)-1].Complete) {
			t.Fatalf("tear inside a stream left it Complete: %+v\n%q", got, torn)
		}
	})
}
