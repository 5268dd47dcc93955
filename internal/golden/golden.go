// Package golden pins test output to committed testdata files: one
// "key value" line per case, so a mismatch names the case that moved.
// Run a package's tests with -update to rewrite its files.
package golden

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing against them")

// Digest returns a short hex digest of v's %+v rendering. It is meant for
// plain-data result structs (no pointers or maps inside): floats render in
// shortest round-trip form, so equal digests mean bit-equal values.
func Digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return fmt.Sprintf("%x", sum[:8])
}

// File is one golden file under comparison.
type File struct {
	path   string
	header string
	want   map[string]string
	lines  []string
}

// Open loads the golden file at path. header is written as the file's
// leading comment under -update (say which commit produced the values).
func Open(t *testing.T, path, header string) *File {
	t.Helper()
	f := &File{path: path, header: header, want: map[string]string{}}
	data, err := os.ReadFile(path)
	if err != nil {
		if *update {
			return f
		}
		t.Fatalf("golden: %v (run with -update to create it)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, _ := strings.Cut(line, " ")
		f.want[key] = value
	}
	return f
}

// Check compares value with the line recorded under key.
func (f *File) Check(t *testing.T, key, value string) {
	t.Helper()
	f.lines = append(f.lines, key+" "+value)
	if *update {
		return
	}
	want, ok := f.want[key]
	if !ok {
		t.Errorf("golden: %s has no entry %q", f.path, key)
		return
	}
	delete(f.want, key)
	if value != want {
		t.Errorf("golden: %s moved\n got %s\nwant %s", key, value, want)
	}
}

// Close rewrites the file under -update; otherwise it fails the test if
// the file holds entries no Check asked for.
func (f *File) Close(t *testing.T) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
			t.Fatal(err)
		}
		body := "# " + strings.ReplaceAll(f.header, "\n", "\n# ") + "\n" + strings.Join(f.lines, "\n") + "\n"
		if err := os.WriteFile(f.path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key := range f.want {
		t.Errorf("golden: %s entry %q was never checked", f.path, key)
	}
}
