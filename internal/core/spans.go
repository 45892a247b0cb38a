package core

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
)

// SpanSink owns the span-stream file of a benchmark run.  Experiment
// worlds race, so each world serializes its stream into a private
// bytes.Buffer (handed out by options); the driving experiment flushes
// the buffers after the runWorlds barrier, in loop order — the same
// discipline that makes the obs ledger deterministic.  The resulting
// file is a concatenation of world streams (hdr ... end per world)
// whose bytes are identical across repeat runs and across GOMAXPROCS.

// SpanSink streams the span logs of every world of a run into one file.
type SpanSink struct {
	f      *os.File
	w      *bufio.Writer
	worlds int
	err    error
}

// CreateSpanSink creates (truncating) the span file at path.
func CreateSpanSink(path string) (*SpanSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &SpanSink{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// Worlds returns how many world streams have been flushed.
func (s *SpanSink) Worlds() int { return s.worlds }

// flush appends one world's serialized stream to the file.  Nil buffers
// (worlds that never ran) are skipped.
func (s *SpanSink) flush(buf *bytes.Buffer) {
	if s == nil || buf == nil {
		return
	}
	if _, err := s.w.Write(buf.Bytes()); err != nil && s.err == nil {
		s.err = err
	}
	s.worlds++
}

// Close flushes and closes the file, reporting the first write error
// (a truncated span file must not look like success).
func (s *SpanSink) Close() error {
	if s == nil {
		return nil
	}
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if s.err != nil {
		return s.err
	}
	return err
}

// spanLabel is the standard stream-header annotation of an experiment
// world: which experiment, machine model, pricing mode, and world size
// produced the stream.
func spanLabel(exp, model, run string, p int) map[string]string {
	return map[string]string{
		"exp":   exp,
		"model": model,
		"run":   run,
		"p":     strconv.Itoa(p),
	}
}
