package gossipkit

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestAPIGate is the module's one API check. It type-checks every non-test
// package once — bench/ included, read only as a source of uses, never as a
// target of findings — and enforces two things over types.Info.Uses:
//
//   - Reachability. The roots are the exported identifiers of package
//     gossipkit and main/init of every binary under cmd/ and bench/. A
//     top-level declaration is live if a live declaration uses it, and a
//     method is live with its receiver type. Every unreachable
//     top-level func, type, var or const under internal/ is a finding
//     unless gateAllow names it (or its package) with a reason. A package
//     nothing imports is therefore all findings.
//   - The boundary rules of gateRules: each names objects (resolved
//     exactly, so bufio.Writer.Flush is not simnet.ShardedNet.Flush) or
//     matches them by type, and the files allowed to use them.
//
// Its subtests inject one violating file per rule into the real tree as an
// in-memory overlay and expect exactly that one finding, so a rule that
// stops seeing its violation fails here too.
func TestAPIGate(t *testing.T) {
	g := newAPIGate(t)

	start := time.Now()
	run := g.check(t, nil)
	for _, f := range run.findings {
		t.Error(f)
	}
	t.Logf("checked %d packages in %v", len(run.pkgs), time.Since(start).Round(time.Millisecond))

	// The sharded-fabric rule is about simnet.ShardedNet.Flush, not about
	// every method named Flush: obs writes through a bufio.Writer.
	ring := run.pkgs["gossipkit/internal/obs"]
	flushes := 0
	for id, obj := range ring.info.Uses {
		if obj.Name() == "Flush" && obj.Pkg() != nil && obj.Pkg().Path() == "bufio" &&
			strings.HasSuffix(g.fset.Position(id.Pos()).Filename, "ring.go") {
			flushes++
		}
	}
	if flushes == 0 {
		t.Error("internal/obs/ring.go no longer calls bufio.Writer.Flush: the gate's name-collision case is gone")
	}

	cases := []struct {
		name, file, src, rule string
	}{
		{"island", "internal/gateisland/island.go",
			"package gateisland\n\nfunc Island() {}\n",
			gateUnreachable},
		{"protocols-import", "cmd/gossipsim/gate_protocols.go",
			"package main\n\nimport _ \"gossipkit/internal/protocols\"\n",
			gateRules[0].name},
		{"sharded-assembly", "internal/stream/gate_flush.go",
			"package stream\n\nimport \"gossipkit/internal/simnet\"\n\nvar _ = new(simnet.ShardedNet).Flush\n",
			gateRules[1].name},
		{"runpool-direct", "internal/scenario/gate_runpool.go",
			"package scenario\n\nimport (\n\t\"context\"\n\n\t\"gossipkit/internal/runpool\"\n)\n\n" +
				"var _ = runpool.RunOrdered(context.Background(), 0, 1,\n" +
				"\tfunc(w, i int) (int, error) { return 0, nil }, func(i, v int) {})\n",
			gateRules[2].name},
		{"compare-names", "engine_gate.go",
			"package gossipkit\n\nimport \"gossipkit/internal/scenario\"\n\nvar _ scenario.CompareConfig\n",
			gateRules[3].name},
		{"process-flags", "cmd/gossipsim/gate_flag.go",
			"package main\n\nimport \"flag\"\n\nvar _ = flag.Int(\"gate\", 0, \"\")\n",
			gateRules[4].name},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := g.check(t, map[string]string{c.file: c.src})
			if len(run.findings) != 1 || run.findings[0].rule != c.rule || run.findings[0].file != c.file {
				t.Fatalf("injected %s: want exactly one %q finding in it, got %d:\n%v",
					c.file, c.rule, len(run.findings), run.findings)
			}
		})
	}
}

// gateAllow is the one list of exceptions to reachability: an import path
// (the whole package) or path.Name, each with its reason.
var gateAllow = map[string]string{
	"gossipkit/internal/golden":      "the digest helper the golden tests share; only _test.go files import it",
	"gossipkit/internal/cli/clitest": "the in-process command runner and exit-contract check the cmd/ tests share; only _test.go files import it",
}

const gateUnreachable = "unreachable from every entry point"

// gateRule is one boundary: the objects it guards ("import path" for an
// import, path.Name for a package-level object, path.Type.Method for a
// method), or a predicate on the object used (match), and the files,
// relative to the module root, that may use them.
type gateRule struct {
	name  string
	objs  []string
	match func(types.Object) bool
	allow func(file string) bool
	hint  string
}

var gateRules = []gateRule{
	{
		name:  "internal/protocols imported",
		objs:  []string{"import gossipkit/internal/protocols"},
		allow: func(f string) bool { return !gateUnder(f, "cmd/") },
		hint:  "reach the baselines through the facade engine specs (Baseline, Campaign)",
	},
	{
		name: "sharded-run assembly outside internal/core/run.go",
		objs: []string{
			"gossipkit/internal/sim.NewShardGroup",
			"gossipkit/internal/simnet.ShardedNet.Prepare",
			"gossipkit/internal/simnet.ShardedNet.ResetShard",
			"gossipkit/internal/simnet.ShardedNet.Flush",
			"gossipkit/internal/simnet.ShardedNet.Buffered",
		},
		allow: func(f string) bool {
			return gateUnder(f, "internal/sim/", "internal/simnet/") || f == "internal/core/run.go"
		},
		hint: "get the run from core.NetArena.Begin and drive it with Run.Drive",
	},
	{
		name: "worker pool used directly outside internal/runpool",
		objs: []string{
			"gossipkit/internal/runpool.Run",
			"gossipkit/internal/runpool.RunOrdered",
			"gossipkit/internal/runpool.Count",
		},
		allow: func(f string) bool { return gateUnder(f, "internal/runpool/") },
		hint:  "run the sweep on runpool.Replicate: it owns the worker count, the per-worker state and the run-ordered reduction",
	},
	{
		name: "the comparison grid's bench-pinned names used outside internal/scenario",
		objs: []string{
			"gossipkit/internal/scenario.CompareCtx",
			"gossipkit/internal/scenario.CompareConfig",
		},
		allow: func(f string) bool { return gateUnder(f, "internal/scenario/") },
		hint:  "build a scenario.Axes and run it with Axes.Sweep",
	},
	{
		name: "process-wide flag state used under cmd/",
		match: func(o types.Object) bool {
			if o.Pkg() == nil || o.Pkg().Path() != "flag" || o.Parent() != o.Pkg().Scope() {
				return false
			}
			_, fn := o.(*types.Func)
			return fn && o.Name() != "NewFlagSet" || o.Name() == "CommandLine"
		},
		allow: func(f string) bool { return !gateUnder(f, "cmd/") },
		hint:  "bind the flags into a set from cli.NewFlagSet inside run",
	},
}

func gateUnder(file string, dirs ...string) bool {
	for _, d := range dirs {
		if strings.HasPrefix(file, d) {
			return true
		}
	}
	return false
}

// apiGate holds what every check shares: the file set, the parsed files of
// the real tree, and one stdlib importer, so the standard library is
// type-checked from source once for the tree and all its overlay cases.
type apiGate struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	parsed map[string]*ast.File
}

func newAPIGate(t *testing.T) *apiGate {
	t.Helper()
	// The gate reads the pure-Go variant of every stdlib package; with cgo
	// on, the source importer would run the C toolchain for net.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	g := &apiGate{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		parsed: map[string]*ast.File{},
	}
	var err error
	if g.root, err = os.Getwd(); err == nil {
		err = g.scan()
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// scan parses every non-test Go file of the module. Hidden directories and
// testdata hold no shipped code.
func (g *apiGate) scan() error {
	return filepath.WalkDir(g.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(g.root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(g.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		g.parsed[rel] = f
		return nil
	})
}

func gateImportPath(dir string) string {
	if dir == "." {
		return "gossipkit"
	}
	return "gossipkit/" + dir
}

// gateFinding is one violation at a file (relative to the module root).
type gateFinding struct {
	file string
	line int
	rule string
	what string
}

func (f gateFinding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.file, f.line, f.rule, f.what)
}

type gatePkg struct {
	files map[string]*ast.File // relative file path → syntax
	types *types.Package
	info  *types.Info
}

type gateRun struct {
	g        *apiGate
	t        *testing.T
	files    map[string]map[string]*ast.File // import path → its files
	pkgs     map[string]*gatePkg
	findings []gateFinding
}

// check type-checks the tree with overlay (relative path → source) laid
// over it, then applies both halves of the gate.
func (g *apiGate) check(t *testing.T, overlay map[string]string) *gateRun {
	t.Helper()
	r := &gateRun{g: g, t: t, files: map[string]map[string]*ast.File{}, pkgs: map[string]*gatePkg{}}
	add := func(rel string, f *ast.File) {
		ip := gateImportPath(path.Dir(rel))
		if r.files[ip] == nil {
			r.files[ip] = map[string]*ast.File{}
		}
		r.files[ip][rel] = f
	}
	for rel, f := range g.parsed {
		add(rel, f)
	}
	for rel, src := range overlay {
		f, err := parser.ParseFile(g.fset, filepath.Join(g.root, rel), src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("overlay %s: %v", rel, err)
		}
		add(rel, f)
	}
	for ip := range r.files {
		if _, err := r.Import(ip); err != nil {
			t.Fatalf("type-check %s: %v", ip, err)
		}
	}
	r.reachability()
	r.boundaries()
	sort.Slice(r.findings, func(i, j int) bool {
		a, b := r.findings[i], r.findings[j]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.line < b.line
	})
	return r
}

// Import resolves module paths from the run's files and everything else
// through the shared stdlib importer.
func (r *gateRun) Import(ip string) (*types.Package, error) {
	if p := r.pkgs[ip]; p != nil {
		return p.types, nil
	}
	files, ok := r.files[ip]
	if !ok {
		return r.g.std.Import(ip)
	}
	p := &gatePkg{files: files, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	names := make([]string, 0, len(files))
	for rel := range files {
		names = append(names, rel)
	}
	sort.Strings(names)
	syntax := make([]*ast.File, len(names))
	for i, rel := range names {
		syntax[i] = files[rel]
	}
	conf := types.Config{Importer: r}
	tp, err := conf.Check(ip, r.g.fset, syntax, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	r.pkgs[ip] = p
	return tp, nil
}

func (r *gateRun) report(pos token.Pos, rule, what string) {
	p := r.g.fset.Position(pos)
	rel, _ := filepath.Rel(r.g.root, p.Filename)
	r.findings = append(r.findings, gateFinding{filepath.ToSlash(rel), p.Line, rule, what})
}

func gateOrigin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// reachability marks every declaration an entry point reaches and reports
// the unreachable ones under internal/.
func (r *gateRun) reachability() {
	decls := map[types.Object]ast.Node{}
	methods := map[*types.TypeName][]types.Object{}
	var roots []types.Object
	for _, p := range r.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					decls[fn] = d
					if recv := fn.Signature().Recv(); recv != nil {
						t := recv.Type()
						if ptr, ok := t.(*types.Pointer); ok {
							t = ptr.Elem()
						}
						tn := t.(*types.Named).Obj()
						methods[tn] = append(methods[tn], fn)
					} else if p.types.Name() == "main" && (d.Name.Name == "main" || d.Name.Name == "init") {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[p.info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if o := p.info.Defs[n]; o != nil {
									decls[o] = s
								}
							}
						}
					}
				}
			}
		}
	}
	root := r.pkgs["gossipkit"]
	for _, name := range root.types.Scope().Names() {
		if o := root.types.Scope().Lookup(name); o.Exported() {
			roots = append(roots, o)
		}
	}

	live := map[types.Object]bool{}
	queue := []types.Object{}
	mark := func(o types.Object) {
		o = gateOrigin(o)
		if live[o] {
			return
		}
		live[o] = true
		queue = append(queue, o)
	}
	for _, o := range roots {
		mark(o)
	}
	for len(queue) > 0 {
		o := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if d := decls[o]; d != nil {
			info := r.pkgs[o.Pkg().Path()].info
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if u := info.Uses[id]; u != nil && u.Pkg() != nil && r.pkgs[u.Pkg().Path()] != nil {
						mark(u)
					}
				}
				return true
			})
		}
		if tn, ok := o.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				mark(m)
			}
		}
	}

	used := map[string]bool{}
	for ip, p := range r.pkgs {
		if !strings.HasPrefix(ip, "gossipkit/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			if live[o] {
				continue
			}
			key := ip + "." + name
			if _, ok := gateAllow[ip]; ok {
				used[ip] = true
				continue
			}
			if _, ok := gateAllow[key]; ok {
				used[key] = true
				continue
			}
			r.report(o.Pos(), gateUnreachable, p.types.Name()+"."+name)
		}
	}
	for key := range gateAllow {
		if !used[key] {
			r.t.Errorf("gateAllow names %s, which is reachable or gone: drop the entry", key)
		}
	}
}

// boundaries reports every use of a guarded object, and every import of a
// guarded package, in a file its rule does not allow. bench/ is exempt.
func (r *gateRun) boundaries() {
	guarded := map[types.Object]*gateRule{}
	imports := map[string]*gateRule{}
	for i := range gateRules {
		rule := &gateRules[i]
		for _, key := range rule.objs {
			if ip, ok := strings.CutPrefix(key, "import "); ok {
				if r.files[ip] == nil {
					r.t.Errorf("rule %q guards %s, which is not a package of the module", rule.name, ip)
				}
				imports[ip] = rule
				continue
			}
			o := r.resolve(key)
			if o == nil {
				r.t.Errorf("rule %q guards %s, which does not exist", rule.name, key)
				continue
			}
			guarded[o] = rule
		}
	}
	for _, p := range r.pkgs {
		for rel, f := range p.files {
			if gateUnder(rel, "bench/") {
				continue
			}
			for _, spec := range f.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				if rule := imports[ip]; rule != nil && !rule.allow(rel) {
					r.report(spec.Pos(), rule.name, ip+" ("+rule.hint+")")
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if u := p.info.Uses[id]; u != nil {
						rule := guarded[gateOrigin(u)]
						for i := range gateRules {
							if m := gateRules[i].match; rule == nil && m != nil && m(u) {
								rule = &gateRules[i]
							}
						}
						if rule != nil && !rule.allow(rel) {
							r.report(id.Pos(), rule.name, id.Name+" ("+rule.hint+")")
						}
					}
				}
				return true
			})
		}
	}
}

// resolve finds path.Name or path.Type.Method among the run's packages.
func (r *gateRun) resolve(key string) types.Object {
	slash := strings.LastIndex(key, "/")
	parts := strings.Split(key[slash+1:], ".")
	p := r.pkgs[key[:slash+1]+parts[0]]
	if p == nil || len(parts) < 2 {
		return nil
	}
	o := p.types.Scope().Lookup(parts[1])
	if o == nil || len(parts) == 2 {
		return o
	}
	named, ok := o.Type().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == parts[2] {
			return m
		}
	}
	return nil
}
