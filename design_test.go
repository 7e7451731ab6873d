package repro_test

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignModuleMapMatchesTree keeps DESIGN.md §3 honest: the packages and
// binaries its tables list are exactly what `go list ./internal/... ./cmd/...`
// finds. A package added without a row, or a row left behind by a deleted
// package, fails here.
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
	for _, m := range regexp.MustCompile("(?m)^\\| `((?:internal|cmd)/[a-z]+)` \\|").FindAllStringSubmatch(section, -1) {
		listed = append(listed, m[1])
	}
	out, err := exec.Command("go", "list", "./internal/...", "./cmd/...").Output()
	if err != nil {
		t.Fatal(err)
	}
	var built []string
	for _, pkg := range strings.Fields(string(out)) {
		built = append(built, strings.TrimPrefix(pkg, "repro/"))
	}
	slices.Sort(listed)
	slices.Sort(built)
	if !slices.Equal(listed, built) {
		t.Errorf("DESIGN.md §3 and the tree disagree:\n§3 lists  %v\ngo list   %v", listed, built)
	}
}
