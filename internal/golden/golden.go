// Package golden pins test values to committed testdata files, one
// "case path value" line per leaf, so a mismatch names the case, the field
// path and both values.
//
// render is the one rendering: structs field by field in declaration
// order (unexported fields included), pointers and interfaces followed,
// floats in shortest round-trip form (equal text means equal bits), a
// slice of scalars on one line and a slice of structs as one column per
// field; any other kind (map, array, complex, func, chan) panics with its
// path. A field tagged golden:"accounting" — bookkeeping
// about how a run was carried out, not what it computed — and everything
// under it render into the accounting column; its paths carry a leading ~
// in the files.
//
// Run a package's tests with -update to add the entries of new fields and
// rewrite accounting entries. -update never rewrites a recorded semantic
// entry: it fails when one moved or vanished, and then writes nothing.
package golden

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "add new golden entries and rewrite accounting ones (never a recorded semantic entry)")

// maxInline is the longest list printed value by value; a longer one
// prints its length and a digest.
const maxInline = 64

// line is one rendered leaf.
type line struct {
	Path, Value string
	// Accounting reports that the leaf sits under a golden:"accounting"
	// field.
	Accounting bool
}

// render turns v into one line per leaf, in declaration order.
func render(v any) []line {
	lines := walk(nil, "", reflect.ValueOf(v), false)
	for i := range lines {
		lines[i].Path = strings.TrimPrefix(lines[i].Path, ".")
	}
	return lines
}

// walk appends v's lines to out, each path prefixed with path. It panics
// on a kind no pinned type holds (map, array, complex, func, chan), so a
// field of that kind fails its test instead of rendering silently.
func walk(out []line, path string, v reflect.Value, acct bool) []line {
	if s, ok := scalar(v); ok {
		return append(out, line{path, s, acct})
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(out, line{path, "nil", acct})
		}
		if v.Kind() == reflect.Interface {
			out = append(out, line{path + ".(type)", v.Elem().Type().String(), acct})
		}
		return walk(out, path, v.Elem(), acct)
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Type().Field(i)
			out = walk(out, path+"."+f.Name, v.Field(i), acct || f.Tag.Get("golden") == "accounting")
		}
		return out
	case reflect.Slice:
		return list(out, path, v, acct)
	}
	panic(fmt.Sprintf("golden: cannot render %s at %q", v.Kind(), strings.TrimPrefix(path, ".")))
}

// list renders a slice of scalars as one line, and any other slice as one
// column per element path, "-" where an element lacks it.
func list(out []line, path string, v reflect.Value, acct bool) []line {
	if _, ok := scalar(reflect.Zero(v.Type().Elem())); ok || v.Len() == 0 {
		vals := make([]string, v.Len())
		for i := range vals {
			vals[i], _ = scalar(v.Index(i))
		}
		return append(out, line{path, column(vals), acct})
	}
	var cols []line // one per element path: Value unused
	vals := map[string][]string{}
	for i := range v.Len() {
		for _, l := range walk(nil, "", v.Index(i), acct) {
			if vals[l.Path] == nil {
				cols = append(cols, l)
				vals[l.Path] = slices.Repeat([]string{"-"}, v.Len())
			}
			vals[l.Path][i] = l.Value
		}
	}
	for _, c := range cols {
		out = append(out, line{path + "[]" + c.Path, column(vals[c.Path]), c.Accounting})
	}
	return out
}

// column prints a short list value by value and a long one as its length
// and a digest of its values.
func column(vals []string) string {
	if len(vals) <= maxInline {
		return "[" + strings.Join(vals, " ") + "]"
	}
	sum := sha256.Sum256([]byte(strings.Join(vals, "\n")))
	return fmt.Sprintf("len=%d sha256:%x", len(vals), sum[:8])
}

// scalar renders a bool, number or string by its kind, ignoring any String
// method; ok is false for every other kind.
func scalar(v reflect.Value) (string, bool) {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.FormatBool(v.Bool()), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.FormatUint(v.Uint(), 10), true
	case reflect.Float32, reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, v.Type().Bits()), true
	case reflect.String:
		return strconv.Quote(v.String()), true
	}
	return "", false
}

// Equal fails t once per path where got and want differ, naming the path
// and both values. Paths equal to or under an entry of except are skipped.
func Equal(t testing.TB, name string, got, want any, except ...string) {
	t.Helper()
	g, w := values(got, except), values(want, except)
	paths := slices.Collect(maps.Keys(g))
	for p := range w {
		if _, ok := g[p]; !ok {
			paths = append(paths, p)
		}
	}
	slices.Sort(paths)
	for _, path := range paths {
		if gv, wv := value(g, path), value(w, path); gv != wv {
			t.Errorf("golden: %s: %s differs\n got %s\nwant %s", name, path, gv, wv)
		}
	}
}

// values maps each path of v's rendering outside except to its value.
func values(v any, except []string) map[string]string {
	m := map[string]string{}
	for _, l := range render(v) {
		if !under(l.Path, except) {
			m[l.Path] = l.Value
		}
	}
	return m
}

func under(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+".") || strings.HasPrefix(path, p+"[") {
			return true
		}
	}
	return false
}

func value(m map[string]string, path string) string {
	if v, ok := m[path]; ok {
		return v
	}
	return "(missing)"
}

// File is one golden file under comparison.
type File struct {
	path, header string
	want         map[string]string
	lines        []string
	failed       bool
}

// Open loads the golden file at path. header is written as the file's
// leading comment under -update (say which commit produced the values).
func Open(t testing.TB, path, header string) *File {
	t.Helper()
	f := &File{path: path, header: header, want: map[string]string{}}
	data, err := os.ReadFile(path)
	if err != nil {
		if *update {
			return f
		}
		t.Fatalf("golden: %v (run with -update to create it)", err)
	}
	for _, text := range strings.Split(string(data), "\n") {
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, rest, _ := strings.Cut(text, " ")
		path, value, _ := strings.Cut(rest, " ")
		f.want[name+" "+path] = value
	}
	return f
}

// Check compares every rendered line of v with the entry recorded under
// name and the line's path. Paths equal to or under an entry of except are
// neither compared nor recorded: a value the caller asserts equal to one
// already pinned.
func (f *File) Check(t testing.TB, name string, v any, except ...string) {
	t.Helper()
	for _, l := range render(v) {
		if under(l.Path, except) {
			continue
		}
		key := name + " " + l.Path
		if l.Accounting {
			key = name + " ~" + l.Path
		}
		f.lines = append(f.lines, key+" "+l.Value)
		want, ok := f.want[key]
		delete(f.want, key)
		switch {
		case ok && want == l.Value:
		case !ok && *update: // a new entry
		case ok && l.Accounting && *update: // accounting may be rewritten
		case !ok:
			f.fail(t, "golden: %s has no entry %q (-update adds it)", f.path, key)
		case *update:
			f.fail(t, "golden: %s moved\n got %s\nwant %s\n(-update never rewrites a semantic entry)", key, l.Value, want)
		default:
			f.fail(t, "golden: %s moved\n got %s\nwant %s", key, l.Value, want)
		}
	}
}

func (f *File) fail(t testing.TB, format string, args ...any) {
	t.Helper()
	f.failed = true
	t.Errorf(format, args...)
}

// Close fails the test if the file holds a semantic entry no Check asked
// for; under -update it then rewrites the file, unless a recorded semantic
// entry moved or vanished.
func (f *File) Close(t testing.TB) {
	t.Helper()
	var left []string
	for key := range f.want {
		if _, path, _ := strings.Cut(key, " "); !*update || !strings.HasPrefix(path, "~") {
			left = append(left, key)
		}
	}
	slices.Sort(left)
	for _, key := range left {
		f.fail(t, "golden: %s entry %q was never checked", f.path, key)
	}
	if !*update || f.failed {
		return
	}
	if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
		t.Fatal(err)
	}
	header := f.header + "\nline = case path value; a path starting with ~ is accounting, which -update may rewrite."
	body := "# " + strings.ReplaceAll(header, "\n", "\n# ") + "\n" + strings.Join(f.lines, "\n") + "\n"
	if err := os.WriteFile(f.path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
