package golden

import (
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"gossipkit"
	"gossipkit/internal/core"
	"gossipkit/internal/obs"
	"gossipkit/internal/scenario"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stream"
)

type row struct {
	At   int64
	Tags []string
}

type sample struct {
	Name   string
	Ratio  float64
	hidden int
	Ptr    *row
	Nil    *row
	Any    any
	Rows   []row
	Counts []int64
	Long   []int
	Books  simnet.Stats `golden:"accounting"`
}

func TestRenderRules(t *testing.T) {
	v := sample{
		Name: "a b", Ratio: 0.1, hidden: 7, Ptr: &row{At: 3}, Any: row{At: 4},
		Rows:   []row{{At: 1, Tags: []string{"x"}}, {At: 2}},
		Counts: []int64{5, 6}, Long: make([]int, maxInline+1),
	}
	got := map[string]string{}
	var acct []string
	for _, l := range render(v) {
		got[l.Path] = l.Value
		if l.Accounting {
			acct = append(acct, l.Path)
		}
	}
	for path, want := range map[string]string{
		"Name":          `"a b"`,
		"Ratio":         "0.1",
		"hidden":        "7",
		"Ptr.At":        "3",
		"Ptr.Tags":      "[]",
		"Nil":           "nil",
		"Any.(type)":    "golden.row",
		"Any.At":        "4",
		"Rows[].At":     "[1 2]",
		"Rows[].Tags":   `[["x"] []]`,
		"Counts":        "[5 6]",
		"Long":          "len=65 sha256:",
		"Books.Sent":    "0",
		"Books.Batches": "0",
	} {
		if !strings.HasPrefix(got[path], want) {
			t.Errorf("%s = %q, want %q", path, got[path], want)
		}
	}
	if len(acct) != len(render(simnet.Stats{})) {
		t.Errorf("accounting lines %v: every line under a tagged field is accounting", acct)
	}
	var stats []string
	for _, l := range render(simnet.Stats{}) {
		if l.Accounting {
			stats = append(stats, l.Path)
		}
	}
	if want := "BoxedSends Settled Batches BatchEntries BatchesDown BatchEntriesDown BatchesDelivered BatchEntriesDelivered"; strings.Join(stats, " ") != want {
		t.Errorf("simnet.Stats accounting column %v, want %s", stats, want)
	}
	if a, b := render(math.Nextafter(1, 2))[0].Value, render(1.0)[0].Value; a == b {
		t.Errorf("one ulp apart renders equal: %s", a)
	}
	defer func() {
		if r := recover(); r != "golden: cannot render map at \"ByKey\"" {
			t.Errorf("a map field rendered instead of panicking: %v", r)
		}
	}()
	render(struct{ ByKey map[string]int }{})
}

// recorder is a testing.TB that keeps failures instead of reporting them.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}
func (r *recorder) Fatalf(format string, args ...any) { r.Errorf(format, args...) }

// TestUpdateIsAddOnly: -update adds new fields' entries and rewrites
// accounting entries, but a recorded semantic entry that moved or
// vanished fails the run and leaves the file as it was.
func TestUpdateIsAddOnly(t *testing.T) {
	defer func(u bool) { *update = u }(*update)
	path := filepath.Join(t.TempDir(), "x.golden")
	type v1 struct {
		Sent  int
		Boxed int `golden:"accounting"`
	}
	type v2 struct {
		Sent  int
		Added int
		Boxed int `golden:"accounting"`
	}
	run := func(updating bool, v any) (errs []string, body string) {
		*update = updating
		r := &recorder{TB: t}
		f := Open(r, path, "header")
		f.Check(r, "case", v)
		f.Close(r)
		data, _ := os.ReadFile(path)
		return r.errs, string(data)
	}
	if errs, _ := run(true, v1{Sent: 1, Boxed: 2}); len(errs) > 0 {
		t.Fatalf("creating: %v", errs)
	}
	errs, before := run(false, v1{Sent: 1, Boxed: 2})
	if len(errs) > 0 {
		t.Fatalf("unchanged value: %v", errs)
	}
	if errs, _ := run(false, v1{Sent: 1, Boxed: 3}); len(errs) != 1 || !strings.Contains(errs[0], "case ~Boxed moved") {
		t.Errorf("moved accounting without -update: %v", errs)
	}
	if errs, after := run(true, v2{Sent: 1, Added: 5, Boxed: 3}); len(errs) > 0 ||
		after != strings.Replace(strings.Replace(before, "~Boxed 2", "~Boxed 3", 1), "case Sent 1\n", "case Sent 1\ncase Added 5\n", 1) {
		t.Errorf("-update with a new field and moved accounting: %v\n%s", errs, after)
	}
	_, before = run(false, v2{Sent: 1, Added: 5, Boxed: 3})
	if errs, after := run(true, v2{Sent: 9, Added: 5, Boxed: 3}); len(errs) != 1 || !strings.Contains(errs[0], "case Sent moved\n got 9\nwant 1") || after != before {
		t.Errorf("-update over a moved semantic entry: %v\n%s", errs, after)
	}
	if errs, after := run(true, v1{Sent: 1, Boxed: 3}); len(errs) != 1 || !strings.Contains(errs[0], `"case Added" was never checked`) || after != before {
		t.Errorf("-update over a vanished semantic entry: %v\n%s", errs, after)
	}
}

// TestEqualNamesThePath: Equal compares both columns, reports each
// differing path with both values, and skips the paths under except.
func TestEqualNamesThePath(t *testing.T) {
	r := &recorder{TB: t}
	a := sample{Rows: []row{{At: 1}}, Books: simnet.Stats{BoxedSends: 1}}
	b := sample{Rows: []row{{At: 2}}, Name: "n"}
	Equal(r, "c", a, b, "Name")
	if want := []string{
		"golden: c: Books.BoxedSends differs\n got 1\nwant 0",
		"golden: c: Rows[].At differs\n got [1]\nwant [2]",
	}; !slices.Equal(r.errs, want) {
		t.Errorf("Equal reported %q, want %q", r.errs, want)
	}
}

// TestRenderCoversEveryLeaf fills every leaf of each pinned root type,
// unexported ones included, with a distinct value and finds each at its
// path in the rendering: nothing a %+v rendering of the type would show
// is left out. Interface fields stay nil; their dynamic types are roots
// of their own.
func TestRenderCoversEveryLeaf(t *testing.T) {
	roots := []any{
		core.NetResult{}, obs.Metrics{}, stream.Result{}, obs.StreamMetrics{}, obs.Merged{},
		scenario.RunReport{}, scenario.SweepResult{}, scenario.GridResult{}, scenario.CompareResult{},
		gossipkit.Report{}, gossipkit.Outcome{}, gossipkit.ProtocolSweep{}, gossipkit.ProtocolResult{},
	}
	for _, root := range roots {
		v := reflect.New(reflect.TypeOf(root)).Elem()
		want := map[string]string{}
		fill(v, "", want, new(int))
		got := map[string]string{}
		for _, l := range render(v.Interface()) {
			got[l.Path] = l.Value
		}
		for _, path := range slices.Sorted(maps.Keys(want)) {
			if trimmed := strings.TrimPrefix(path, "."); got[trimmed] != want[path] {
				t.Errorf("%T: leaf %s rendered %q, want %q", root, trimmed, got[trimmed], want[path])
			}
		}
		if len(want) < 5 {
			t.Errorf("%T: only %d leaves filled", root, len(want))
		}
	}
}

// fill sets every leaf under v to a distinct nonzero value and records the
// path and rendering each should have.
func fill(v reflect.Value, path string, want map[string]string, next *int) {
	if !v.CanSet() {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.OverflowInt(int64(n)) {
			n = n%100 + 1
		}
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.OverflowUint(uint64(n)) {
			n = n%100 + 1
		}
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprint("s", n))
	case reflect.Interface:
		want[path] = "nil"
		return
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), path, want, next)
		return
	case reflect.Struct:
		for i := range v.NumField() {
			fill(v.Field(i), path+"."+v.Type().Field(i).Name, want, next)
		}
		return
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		elem := map[string]string{}
		fill(v.Index(0), "", elem, next)
		_, scalarElem := scalar(v.Index(0))
		for rel, value := range elem {
			if scalarElem {
				want[path] = "[" + value + "]"
			} else {
				want[path+"[]"+rel] = "[" + value + "]"
			}
		}
		return
	default:
		panic(fmt.Sprintf("fill: %s at %s has no filler", v.Type(), path))
	}
	want[path], _ = scalar(v)
}
