package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantFieldError asserts the loader failed with a *FieldError blaming
// the given field.
func wantFieldError(t *testing.T, err error, field string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want a *FieldError for field %q, got nil", field)
	}
	var fe *FieldError
	if !errors.As(err, &fe) {
		t.Fatalf("error %T is not a *FieldError: %v", err, err)
	}
	if fe.Field != field {
		t.Errorf("blamed field %q, want %q (%v)", fe.Field, field, err)
	}
}

// TestLoadErrorContract: every class of hostile input returns a
// *FieldError naming the offending field — unknown fields, type
// mismatches, truncation, garbage, trailing data, and constraint
// violations.
func TestLoadErrorContract(t *testing.T) {
	cases := []struct {
		name, in, field string
	}{
		{"unknown field", `{"name":"a","kind":"front","model":"flat","frac":0.1,"warp":9}`, "warp"},
		{"type mismatch", `{"name":"a","kind":"front","model":"flat","frac":"lots"}`, "frac"},
		{"nested type mismatch", `{"name":"a","kind":"front","model":"flat","frac":0.1,
			"front":{"x0":"left"}}`, "front.x0"},
		{"document not object", `[1,2,3]`, "(document)"},
		{"truncated", `{"name":"a","kind":"fr`, "(syntax)"},
		{"garbage", `}{!!`, "(syntax)"},
		{"empty", ``, "(syntax)"},
		{"trailing data", `{"name":"a","kind":"front","model":"flat","frac":0.1,
			"front":{"x0":0.2,"x1":0.8,"width":0.2}} {"second":true}`, "(document)"},
		{"constraint", `{"name":"a","kind":"front","model":"flat","frac":2,
			"front":{"x0":0.2,"x1":0.8,"width":0.2}}`, "frac"},
		// The harness and serve layers default "" to the flat machine;
		// a scenario must still name its machine.
		{"empty model", `{"name":"a","kind":"front","model":"","frac":0.1,
			"front":{"x0":0.2,"x1":0.8,"width":0.2}}`, "model"},
	}
	for _, tc := range cases {
		_, err := LoadBytes([]byte(tc.in))
		t.Run(tc.name, func(t *testing.T) { wantFieldError(t, err, tc.field) })
	}
}

// TestLoadDirCorpus: the committed corpus loads cleanly, sorted by
// name, with unique names matching their file base names.
func TestLoadDirCorpus(t *testing.T) {
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(specs); i++ {
		if specs[i-1].Name >= specs[i].Name {
			t.Errorf("corpus not sorted: %q before %q", specs[i-1].Name, specs[i].Name)
		}
	}
}

// TestLoadDirRejectsDuplicates and empty directories.
func TestLoadDirRejectsDuplicates(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadDir(dir); err == nil {
		t.Error("LoadDir accepted an empty corpus")
	}
	spec := `{"name":"dup","kind":"front","model":"flat","frac":0.1,
		"front":{"x0":0.2,"x1":0.8,"width":0.2}}`
	writeFile(t, filepath.Join(dir, "dup.json"), spec)
	if _, err := LoadDir(dir); err != nil {
		t.Fatalf("single spec: %v", err)
	}
	// A second file with the same embedded name fails the base-name check
	// first; a byte-identical copy under another name fails either way.
	writeFile(t, filepath.Join(dir, "dup2.json"), spec)
	if _, err := LoadDir(dir); err == nil {
		t.Error("LoadDir accepted two specs named dup")
	}
}

// TestFindAndDigest: Find resolves a corpus name or lists the corpus,
// and Digest follows a spec's content, not its name.
func TestFindAndDigest(t *testing.T) {
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Find(specs, "front-plane")
	if err != nil || sp.Name != "front-plane" {
		t.Fatalf("Find(front-plane) = %v, %v", sp, err)
	}
	_, err = Find(specs, "typo")
	if err == nil || !strings.Contains(err.Error(), `unknown scenario "typo"`) ||
		!strings.Contains(err.Error(), "front-plane") {
		t.Errorf("unknown name: %v, want an error listing the corpus", err)
	}

	d := sp.Digest()
	if len(d) != 64 {
		t.Errorf("digest %q is not 64 hex chars", d)
	}
	if again, _ := LoadFile(filepath.Join(corpusDir, "front-plane.json")); again.Digest() != d {
		t.Error("reloading the same file moved the digest")
	}
	edited := *sp
	edited.Frac = 0.2
	if edited.Digest() == d {
		t.Error("a same-name frac edit kept the digest")
	}
}

// FuzzLoad: arbitrary bytes must never panic the loader, and every
// failure must be a *FieldError with a non-empty field name.  Inputs
// that load successfully must re-validate (Load never returns a spec
// that Validate rejects) and have a content address.
func FuzzLoad(f *testing.F) {
	seeds := []string{
		`{"name":"front-sweep","kind":"front","model":"smp","frac":0.12,"coarsen_below":0.05,
		  "cycles":3,"front":{"x0":0.25,"x1":0.75,"width":0.17,"radius":0.35}}`,
		`{"name":"burst","kind":"burst","model":"smp","frac":0.1,
		  "burst":{"arrival":1,"peak":0.3,"decay":0.5,"floor":0.03}}`,
		`{"name":"strag","kind":"straggler","model":"flat","frac":0.1,
		  "straggler":{"ranks":[1],"slowdown":0.5,"from":1,"to":3}}`,
		`{"name":"mj","kind":"multijob","model":"fattree","frac":0.1,
		  "multijob":{"period":0.3,"duty":0.5,"load":4}}`,
		`{"name":"a","kind":"front","model":"flat","frac":"lots"}`,
		`{"name":"a","kind":"fr`,
		`}{!!`,
		``,
		`null`,
		`[1,2,3]`,
		`{"name":"a","kind":"front","model":"flat","frac":1e999}`,
		`{"unknown":"field"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadBytes(data)
		if err != nil {
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("non-FieldError failure %T: %v", err, err)
			}
			if strings.TrimSpace(fe.Field) == "" {
				t.Fatalf("FieldError with empty field: %v", err)
			}
			return
		}
		if s == nil {
			t.Fatal("nil spec with nil error")
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Load returned a spec Validate rejects: %v", err)
		}
		s.Digest()
	})
}
