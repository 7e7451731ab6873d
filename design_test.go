package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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
