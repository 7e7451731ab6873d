package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// goList runs `go list` with args and returns the packages it prints, sorted,
// without the module prefix.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for _, pkg := range strings.Fields(string(out)) {
		pkgs = append(pkgs, strings.TrimPrefix(pkg, "repro/"))
	}
	slices.Sort(pkgs)
	return pkgs
}

// TestDesignModuleMapMatchesTree keeps DESIGN.md §3 honest: the packages,
// binaries and examples its tables list are exactly what `go list
// ./internal/... ./cmd/... ./examples/...` finds. A package added without a
// row, or a row left behind by a deleted package, fails here.
func TestDesignModuleMapMatchesTree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool; skipped in -short mode")
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "\n## 3. ")
	section, _, ok2 := strings.Cut(rest, "\n## 4. ")
	if !ok || !ok2 {
		t.Fatal("DESIGN.md has no §3 between the \"## 3. \" and \"## 4. \" headings")
	}
	var listed []string
	for _, m := range regexp.MustCompile("(?m)^\\| `((?:internal|cmd|examples)/[a-z]+)` \\|").FindAllStringSubmatch(section, -1) {
		listed = append(listed, m[1])
	}
	slices.Sort(listed)
	built := goList(t, "./internal/...", "./cmd/...", "./examples/...")
	if !slices.Equal(listed, built) {
		t.Errorf("DESIGN.md §3 and the tree disagree:\n§3 lists  %v\ngo list   %v", listed, built)
	}
}

// TestEveryInternalPackageHasACaller is §3's rule, executable: an internal
// package is built into the facade, a binary or the benchmark. One that only
// an example or its own tests import fails here.
func TestEveryInternalPackageHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool; skipped in -short mode")
	}
	reached := goList(t, "-deps", ".", "./cmd/...", "./benchmark")
	for _, pkg := range goList(t, "./internal/...") {
		if _, ok := slices.BinarySearch(reached, pkg); !ok {
			t.Errorf("%s is not a dependency of the facade, ./cmd/... or ./benchmark", pkg)
		}
	}
}

// optionAllowlist names the option fields TestEveryOptionHasACaller lets stand
// without a non-test setter, each with the reason it stays.
var optionAllowlist = map[string]string{
	"cluster.Config.RTT":                 "benchmark/layers.go, which may not change, builds cluster.Config{} for NewFabric: without its two fields the struct would be empty yet still required",
	"cluster.Config.Bandwidth":           "as cluster.Config.RTT",
	"topology.SingleNodeConfig.ScaleCap": "the only way a region test gets a device under memory pressure without allocating its real capacity",
}

// TestEveryOptionHasACaller is the options rule, executable: every exported
// field of an exported struct named *Config, *Policy or *Options outside
// benchmark/ is set by some non-test, non-example code. Setting is a composite
// literal of the struct's type that names the field, or an assignment to the
// field through a selector outside the declaring package; a package filling
// in its own defaults does not count. An option only tests vary is a
// constant. Without type information a selector write counts for every
// option struct with a field of that name in a package the file imports.
func TestEveryOptionHasACaller(t *testing.T) {
	type typeKey struct{ pkg, name string } // import path, type name
	type fieldKey struct {
		typ   typeKey
		field string
	}
	type file struct {
		pkg     string            // import path of the file's package
		imports map[string]string // local name → import path
		ast     *ast.File
	}
	var files []file
	fields := map[typeKey][]string{}   // option struct → its exported fields
	aliases := map[typeKey]typeKey{}   // type alias → the type it names
	declared := map[string][]typeKey{} // field name → option structs declaring it
	option := regexp.MustCompile(`(Config|Policy|Options)$`)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "examples" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fl := file{pkg: "repro", imports: map[string]string{}, ast: f}
		if dir := filepath.Dir(path); dir != "." {
			fl.pkg += "/" + filepath.ToSlash(dir)
		}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			fl.imports[name] = p
		}
		files = append(files, fl)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok && ts.Assign.IsValid() {
					if x, ok := sel.X.(*ast.Ident); ok {
						aliases[typeKey{fl.pkg, ts.Name.Name}] = typeKey{fl.imports[x.Name], sel.Sel.Name}
					}
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !option.MatchString(ts.Name.Name) ||
					strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
					continue
				}
				key := typeKey{fl.pkg, ts.Name.Name}
				fields[key] = nil
				for _, field := range st.Fields.List {
					for _, n := range field.Names { // an embedded struct counts as its own type
						if n.IsExported() {
							fields[key] = append(fields[key], n.Name)
							declared[n.Name] = append(declared[n.Name], key)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	set := map[fieldKey]bool{}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				var k typeKey
				switch typ := n.Type.(type) {
				case *ast.Ident:
					k = typeKey{f.pkg, typ.Name}
				case *ast.SelectorExpr:
					if x, ok := typ.X.(*ast.Ident); ok {
						k = typeKey{f.imports[x.Name], typ.Sel.Name}
					}
				}
				if a, ok := aliases[k]; ok {
					k = a
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[fieldKey{k, key.Name}] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					for _, k := range declared[sel.Sel.Name] {
						if k.pkg == f.pkg {
							continue
						}
						for _, p := range f.imports {
							if p == k.pkg || p == "repro" {
								set[fieldKey{k, sel.Sel.Name}] = true
							}
						}
					}
				}
			}
			return true
		})
	}

	var unset []string
	for k, names := range fields {
		for _, field := range names {
			if !set[fieldKey{k, field}] {
				unset = append(unset, k.pkg[strings.LastIndex(k.pkg, "/")+1:]+"."+k.name+"."+field)
			}
		}
	}
	slices.Sort(unset)
	for _, name := range unset {
		if optionAllowlist[name] == "" {
			t.Errorf("%s: no non-test code sets it; make it a constant, or give it a caller", name)
		}
	}
	for name := range optionAllowlist {
		if _, ok := slices.BinarySearch(unset, name); !ok {
			t.Errorf("allowlisted %s is set by non-test code, or gone: drop it from optionAllowlist", name)
		}
	}
}

// funcAllowlist names the exported functions and methods under internal/ that
// TestEveryFunctionHasACaller lets stand without a non-test caller, each with
// the reason it stays.
var funcAllowlist = map[string]string{
	"core.Server.Submit":         "serving API of the facade's Server, which README and doc.go document",
	"core.Server.Checkpointer":   "as core.Server.Submit",
	"core.Server.LiveWorkers":    "as core.Server.Submit",
	"core.Runtime.Workers":       "serving API of the facade's Runtime: Server.LiveWorkers's solo counterpart",
	"core.Ticket.Done":           "serving API of the facade's Ticket, which README and doc.go document",
	"core.StreamTicket.Drain":    "serving API of the facade's StreamTicket, which README and doc.go document",
	"shard.Cluster.Submit":       "serving API of the facade's Cluster, which README and doc.go document",
	"shard.Cluster.Checkpointer": "as shard.Cluster.Submit",
	"shard.Cluster.Partition":    "the facade Cluster's failure API, which README documents beside Crash",
	"shard.Cluster.Heal":         "undoes Partition on the facade Cluster",
	"shard.Cluster.Restart":      "undoes Crash on the facade Cluster",

	"fault.Injector.Kill":                 "the fault hook the core tests and examples_test.go kill named tasks with",
	"core.Checkpointer.Snapshots":         "the leak check the core and shard tests run after every recovered job",
	"coherence.Directory.CheckInvariants": "the directory check the region tests run after their stress loops",
	"region.Manager.DeviceBytes":          "the leak check the core tests run over a runtime's devices",
	"region.Handle.Sealed":                "the seal state the core tests read off a handle a task leaked",
	"region.Handle.Owner":                 "the owner the core tests name a leaked handle by",
	"allocator.BufList.Held":              "the bound the cluster, coherence, region and core tests hold their buffer free lists to",
	"allocator.FreeList.Held":             "the byte bound the core tests hold the runtime's scratch free list to",
}

// moduleImporter type-checks the module's packages from their non-test files
// and hands every other import path to the standard importer.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path → non-test files
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// TestEveryFunctionHasACaller is the functions rule, executable: every
// exported function or method declared in a non-test file under internal/ is
// called by non-test code. Called means a non-test file of the module, outside
// the function's own declaration, holds a reference that resolves to it, or
// the method shares its name with a method of an interface the module declares
// (named, or a literal such as a type assertion's) or of error, fmt.Stringer,
// sort.Interface and heap.Interface: a call through the interface may reach
// it. A function only tests call belongs in a _test.go file.
func TestEveryFunctionHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module; skipped in -short mode")
	}
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		m.files[pkg] = append(m.files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range m.files {
		if _, err := m.Import(pkg); err != nil {
			t.Fatal(err)
		}
	}

	// The exported functions under internal/, with the span of each one's
	// declaration.
	type span struct{ from, to token.Pos }
	decls := map[*types.Func]span{}
	for pkg, files := range m.files {
		if !strings.HasPrefix(pkg, "repro/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls[m.info.Defs[fd.Name].(*types.Func)] = span{fd.Pos(), fd.End()}
				}
			}
		}
	}
	called := map[*types.Func]bool{}
	for id, obj := range m.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if s, ok := decls[fn]; ok && (id.Pos() < s.from || id.Pos() >= s.to) {
			called[fn] = true
		}
	}

	// A method may be reached through an interface instead of by name: one
	// named like a method of an interface the module declares, or of error,
	// fmt.Stringer, sort.Interface or heap.Interface, counts as called.
	dispatched := map[string]bool{}
	addMethods := func(it *types.Interface) {
		for i := range it.NumMethods() {
			dispatched[it.Method(i).Name()] = true
		}
	}
	for _, tv := range m.info.Types {
		if !tv.IsType() {
			continue
		}
		switch typ := types.Unalias(tv.Type).(type) {
		case *types.Interface:
			addMethods(typ)
		case *types.Named:
			if it, ok := typ.Underlying().(*types.Interface); ok && typ.Obj().Pkg() != nil && m.files[typ.Obj().Pkg().Path()] != nil {
				addMethods(it)
			}
		}
	}
	addMethods(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, name := range []string{"fmt.Stringer", "sort.Interface", "container/heap.Interface"} {
		path, typ, _ := strings.Cut(name, ".")
		p, err := m.std.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		addMethods(p.Scope().Lookup(typ).Type().Underlying().(*types.Interface))
	}

	var uncalled []string
	for fn := range decls {
		recv := fn.Type().(*types.Signature).Recv()
		if called[fn] || recv != nil && dispatched[fn.Name()] {
			continue
		}
		name := fn.Pkg().Name() + "." + fn.Name()
		if recv != nil {
			typ := recv.Type()
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			name = fn.Pkg().Name() + "." + typ.(*types.Named).Obj().Name() + "." + fn.Name()
		}
		uncalled = append(uncalled, name)
	}
	slices.Sort(uncalled)
	for _, name := range uncalled {
		if funcAllowlist[name] == "" {
			t.Errorf("%s: no non-test code calls it; delete it, move it into a _test.go file, or give it a caller", name)
		}
	}
	for name := range funcAllowlist {
		if _, ok := slices.BinarySearch(uncalled, name); !ok {
			t.Errorf("allowlisted %s is called by non-test code, or gone: drop it from funcAllowlist", name)
		}
	}
}

// TestShardProtocolIsPure keeps the shard router's protocol a pure
// function that TestShardProtocolExhaustive can enumerate: protocol.go
// imports no package of this module and nothing that blocks, waits, reads
// the clock or draws randomness, and it starts no goroutine and uses no
// channel.
func TestShardProtocolIsPure(t *testing.T) {
	const file = "internal/shard/protocol.go"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	banned := []string{"sync", "sync/atomic", "context", "time", "os", "math/rand"}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path == "repro" || strings.HasPrefix(path, "repro/") || slices.Contains(banned, path) {
			t.Errorf("%s imports %q", file, path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		what := ""
		switch n := n.(type) {
		case *ast.GoStmt:
			what = "a go statement"
		case *ast.ChanType:
			what = "a channel type"
		case *ast.SendStmt:
			what = "a send"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				what = "a receive"
			}
		case *ast.SelectStmt:
			what = "a select"
		}
		if what != "" {
			t.Errorf("%s contains %s", fset.Position(n.Pos()), what)
		}
		return true
	})
}

// TestPoolAloneRunsItsMembers keeps drive (internal/core/exec.go) a pump over
// settled members: it joins them to the pool and takes them back, and never
// reaches into the pool — no attach, detach, advance, launch or
// drainedLocked call, no mu or cond of its own to lock or wait on. Nothing in
// the package but the pool's own file (wavefront.go) calls launch or advance.
func TestPoolAloneRunsItsMembers(t *testing.T) {
	files, err := filepath.Glob("internal/core/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		base := filepath.Base(file)
		if strings.HasSuffix(base, "_test.go") || base == "wavefront.go" {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		banned := []string{"launch", "advance"}
		if base == "exec.go" {
			banned = append(banned, "attach", "detach", "drainedLocked", "mu", "cond")
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && slices.Contains(banned, sel.Sel.Name) {
				t.Errorf("%s: %s reaches into the pool (.%s)", fset.Position(sel.Pos()), base, sel.Sel.Name)
			}
			return true
		})
	}
}

// TestBenchGatesAreWhole keeps the Makefile's benchmark gates honest: every
// SMOKE_BENCHES row (name:package:regexp:benchtime:gate) is gated against a
// committed bench/BENCH_<name>_baseline.json, every unit a gate lists —
// there and in loadgen-smoke — carries a tolerance of its own, since
// benchgate has no default, and every file under bench/ is a row's baseline,
// the baseline it replaced (BENCH_<name>_before.json), or a baseline the
// Makefile names.
func TestBenchGatesAreWhole(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile(`(?m)^SMOKE_BENCHES = \\\n((?:\t.*\\\n)*\t.*\n)`).FindSubmatch(mk)
	if block == nil {
		t.Fatal("Makefile: no SMOKE_BENCHES block")
	}
	owned := map[string]bool{}
	for _, m := range regexp.MustCompile(`bench/(BENCH_\w+\.json)`).FindAllSubmatch(mk, -1) {
		owned[string(m[1])] = true
	}
	var gates []string
	for _, m := range regexp.MustCompile(`(?m)^\t.*-metrics ([^\s"$]+)`).FindAllSubmatch(mk, -1) {
		gates = append(gates, string(m[1]))
	}
	rows := regexp.MustCompile(`'([^']*)'`).FindAllSubmatch(block[1], -1)
	if len(rows) == 0 {
		t.Fatal("SMOKE_BENCHES lists no row")
	}
	for _, m := range rows {
		fields := strings.SplitN(string(m[1]), ":", 5)
		if len(fields) < 5 {
			t.Errorf("SMOKE_BENCHES row %q has no gate", m[1])
			continue
		}
		name := fields[0]
		gates = append(gates, fields[4])
		baseline := "BENCH_" + name + "_baseline.json"
		if _, err := os.Stat(filepath.Join("bench", baseline)); err != nil {
			t.Errorf("SMOKE_BENCHES row %s has no committed baseline: %v", name, err)
		}
		owned[baseline], owned["BENCH_"+name+"_before.json"] = true, true
	}
	for _, gate := range gates {
		for _, u := range strings.Split(gate, ",") {
			unit, tol, ok := strings.Cut(u, ":")
			if v, err := strconv.ParseFloat(tol, 64); !ok || err != nil || v < 0 {
				t.Errorf("gate %q: unit %q carries no tolerance of its own", gate, unit)
			}
		}
	}
	files, err := filepath.Glob("bench/BENCH_*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !owned[filepath.Base(f)] {
			t.Errorf("%s belongs to no bench-smoke row or Makefile gate", f)
		}
	}
}

// TestDesignHeadingsCarryNoHistory: a DESIGN.md heading names what the
// section describes, not the PR that added it; history is CHANGES.md's.
func TestDesignHeadingsCarryNoHistory(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range regexp.MustCompile(`(?m)^#+ .*\(PR \d+\).*$`).FindAllString(string(doc), -1) {
		t.Errorf("DESIGN.md heading carries a PR number: %q", h)
	}
}

// The design records every session reads are bounded: EXPERIMENTS.md keeps
// each reproduced experiment's claim, table and command, and one ledger row
// for every engine-cost or deletion entry; DESIGN.md states the design, not
// how it came about.
const (
	experimentsMaxBytes = 90 << 10
	designMaxBytes      = 70 << 10
	changesEntryMax     = 1536 // bytes per CHANGES.md entry, from firstCappedPR on
	firstCappedPR       = 38
)

// TestDesignRecordsFitTheirBounds: a record that outgrows its bound is
// condensed, not the bound raised — the full write-up of an entry stays
// reachable through the commit its ledger row names.
func TestDesignRecordsFitTheirBounds(t *testing.T) {
	for file, max := range map[string]int{"EXPERIMENTS.md": experimentsMaxBytes, "DESIGN.md": designMaxBytes} {
		fi, err := os.Stat(file)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > int64(max) {
			t.Errorf("%s is %d bytes, over its bound of %d", file, fi.Size(), max)
		}
	}
}

// experimentIDs returns the ids EXPERIMENTS.md defines, by heading ("## A7 —")
// or ledger row ("| A33 |"), each with its ledger row's cells (nil for a
// heading).
func experimentIDs(t *testing.T) map[string][]string {
	t.Helper()
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string][]string{}
	for _, m := range regexp.MustCompile(`(?m)^## ([TFCA][0-9]+) `).FindAllStringSubmatch(string(doc), -1) {
		ids[m[1]] = nil
	}
	for _, m := range regexp.MustCompile(`(?m)^\| (A[0-9]+) \|(.*)\|$`).FindAllStringSubmatch(string(doc), -1) {
		if _, dup := ids[m[1]]; dup {
			t.Errorf("EXPERIMENTS.md defines %s twice", m[1])
		}
		ids[m[1]] = strings.Split(m[2], "|")
	}
	return ids
}

// citedID matches an experiment id: T1–T3, F1–F4, C1–C5 or A<n>.
var citedID = regexp.MustCompile(`\b(T[1-3]|F[1-4]|C[1-5]|A[0-9]+)\b`)

// TestCitedExperimentsResolve: every experiment id the code, its tests and
// the documents cite names a heading or a ledger row of EXPERIMENTS.md, so
// condensing an entry into the ledger, or dropping a row, cannot leave a
// citation pointing nowhere. benchmark/ is frozen and cites nothing.
func TestCitedExperimentsResolve(t *testing.T) {
	ids := experimentIDs(t)
	files := []string{"EXPERIMENTS.md", "ROADMAP.md", "DESIGN.md", "CHANGES.md", "README.md"}
	skills, err := filepath.Glob(filepath.Join(".claude", "skills", "*", "SKILL.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, skills...)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "benchmark" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, id := range citedID.FindAllString(line, -1) {
				if _, ok := ids[id]; !ok {
					t.Errorf("%s:%d cites %s, which EXPERIMENTS.md has no heading or ledger row for", file, i+1, id)
				}
			}
		}
	}
}

// TestChangesEntriesStayShort: a CHANGES.md entry says what a PR did in at
// most changesEntryMax bytes; its measurements go to a ledger row and the
// numbers behind them to the PR's commit.
func TestChangesEntriesStayShort(t *testing.T) {
	doc, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	starts := regexp.MustCompile(`(?m)^- PR ([0-9]+)\b`).FindAllSubmatchIndex(doc, -1)
	for i, m := range starts {
		end := len(doc)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		pr, _ := strconv.Atoi(string(doc[m[2]:m[3]]))
		if n := len(strings.TrimRight(string(doc[m[0]:end]), "\n")); pr >= firstCappedPR && n > changesEntryMax {
			t.Errorf("CHANGES.md entry for PR %d is %d bytes, over %d", pr, n, changesEntryMax)
		}
	}
}

// TestLedgerCommitsHoldTheirEntries: the commit a ledger row names still holds
// the row's full entry, so `git show <commit>:EXPERIMENTS.md` gives its
// narrative. It needs the repository's history, so it skips outside a full
// git clone.
func TestLedgerCommitsHoldTheirEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs git; skipped in -short mode")
	}
	if out, err := exec.Command("git", "rev-parse", "--is-shallow-repository").Output(); err != nil || strings.TrimSpace(string(out)) != "false" {
		t.Skip("no full git history here")
	}
	for id, cells := range experimentIDs(t) {
		if cells == nil {
			continue
		}
		if len(cells) != 6 {
			t.Errorf("ledger row %s has %d cells after its id, want 6", id, len(cells))
			continue
		}
		commit := strings.Trim(strings.TrimSpace(cells[4]), "`")
		doc, err := exec.Command("git", "show", commit+":EXPERIMENTS.md").Output()
		if err != nil {
			t.Errorf("ledger row %s: git show %s:EXPERIMENTS.md: %v", id, commit, err)
			continue
		}
		if !regexp.MustCompile(`(?m)^## ` + id + ` `).Match(doc) {
			t.Errorf("ledger row %s names %s, whose EXPERIMENTS.md has no \"## %s \" entry", id, commit, id)
		}
	}
}
