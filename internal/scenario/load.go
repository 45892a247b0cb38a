package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Strict config loading.  The loader is the trust boundary between a
// config file and the simulator, so it is deliberately unforgiving:
// unknown fields, type mismatches, trailing garbage, truncation, and
// every constraint violation return a *FieldError naming the offending
// field.  Hostile input must never panic — the fuzz harness drives this
// entry point with arbitrary bytes.

// Load parses and validates one scenario spec from JSON, applying the
// defaults (p=8, cycles=4, mapper=heu) before validation.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, asFieldError(err)
	}
	// Trailing non-whitespace after the spec object is a malformed file,
	// not a second document.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fieldErr("(document)", "trailing data after the spec object")
	}
	s.applyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadBytes is Load over a byte slice.
func LoadBytes(data []byte) (*Spec, error) { return Load(bytes.NewReader(data)) }

// LoadFile loads the spec at path and additionally requires the file's
// base name (sans .json) to equal the spec's name — the invariant that
// lets the corpus gate pair scenario files with golden ledgers.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := LoadBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if base := strings.TrimSuffix(filepath.Base(path), ".json"); base != s.Name {
		return nil, fmt.Errorf("%s: %w", path,
			fieldErr("name", "spec name %q must match the file base name %q", s.Name, base))
	}
	return s, nil
}

// LoadDir loads every *.json spec in dir, sorted by scenario name, and
// rejects duplicate names.  Golden ledgers (*.jsonl) and other files
// are ignored.
func LoadDir(dir string) ([]*Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs in %s", dir)
	}
	sort.Strings(paths)
	seen := make(map[string]bool)
	specs := make([]*Spec, 0, len(paths))
	for _, p := range paths {
		s, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("%s: %w", p, fieldErr("name", "duplicate scenario name %q", s.Name))
		}
		seen[s.Name] = true
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}

// Find returns the spec named name from a loaded corpus.  An unknown
// name is an error that lists the corpus, so the caller can correct it.
func Find(specs []*Spec, name string) (*Spec, error) {
	names := make([]string, len(specs))
	for i, s := range specs {
		if s.Name == name {
			return s, nil
		}
		names[i] = s.Name
	}
	return nil, fmt.Errorf("unknown scenario %q; corpus: %s", name, strings.Join(names, ", "))
}

// Digest is the scenario's content address, the hex SHA-256 of its
// canonical JSON (json.Marshal, defaults applied).  A same-name edit
// moves it, so every run identity that includes a scenario — a served
// world's canon, a ledger's config digest — names it by this.
func (s *Spec) Digest() string {
	b, err := json.Marshal(s)
	if err != nil { // only a NaN or Inf, which Validate rejects, fails to encode
		panic(fmt.Sprintf("scenario: digest of an invalid spec %q: %v", s.Name, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// applyDefaults fills the optional knobs Load promises.
func (s *Spec) applyDefaults() {
	if s.P == 0 {
		s.P = 8
	}
	if s.Cycles == 0 {
		s.Cycles = 4
	}
	if s.Mapper == "" {
		s.Mapper = "heu"
	}
}

// asFieldError converts an encoding/json decode failure into the named
// *FieldError contract.  Type mismatches carry the field; syntax-level
// failures (truncation, garbage) are named "(syntax)".
func asFieldError(err error) error {
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) {
		field := typeErr.Field
		if field == "" {
			field = "(document)"
		}
		return fieldErr(field, "cannot decode %s into %s", typeErr.Value, typeErr.Type)
	}
	// DisallowUnknownFields reports `json: unknown field "xyz"`; surface
	// the quoted name as the offending field.
	msg := err.Error()
	if i := strings.Index(msg, `unknown field "`); i >= 0 {
		rest := msg[i+len(`unknown field "`):]
		if j := strings.IndexByte(rest, '"'); j > 0 {
			return fieldErr(rest[:j], "unknown field")
		}
		// JSON allows "" as a key; keep the field name non-empty.
		return fieldErr("(unknown)", "unknown field %q", "")
	}
	return fieldErr("(syntax)", "%v", err)
}
