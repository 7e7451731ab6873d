package repro_test

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
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
