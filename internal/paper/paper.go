// Package paper regenerates every table and figure of "Programming Fully
// Disaggregated Systems" (HotOS '23), plus the quantitative claims its
// introduction cites, from the simulated system in this repository. Each
// artifact function returns both a rendered text table (what cmd/paperbench
// prints) and structured metrics (what tests and benches assert on).
//
// The index of artifacts mirrors DESIGN.md §4: T1-T3 are the paper's
// tables, F1-F4 its figures, C1-C5 the intro/discussion claims, A1-A3 the
// design ablations. Absolute numbers come from a simulator and are not
// expected to match the authors' hardware; the *shape* of each result (who
// wins, by roughly what factor) is the reproduction target.
package paper

import (
	"fmt"
	"sort"
	"strings"
)

// Artifact is one regenerated table/figure/claim.
type Artifact struct {
	ID      string // stable identifier, e.g. "table1", "figure4", "claim-numa"
	Title   string
	Text    string             // rendered table
	Metrics map[string]float64 // structured findings for assertions
}

// artifacts is every artifact generator, in DESIGN.md order: the one list
// IDs and Generate read.
var artifacts = []struct {
	id  string
	gen func() (*Artifact, error)
}{
	{"table1", Table1}, {"table1-sweep", Table1Sweep}, {"table2", Table2}, {"table3", Table3},
	{"figure1", Figure1}, {"figure1-sweep", Figure1Sweep}, {"figure2", Figure2}, {"figure3", Figure3}, {"figure4", Figure4},
	{"claim-numa", ClaimNUMA}, {"claim-placement", ClaimPlacement}, {"claim-util", ClaimUtilization},
	{"claim-fault", ClaimFaultTolerance}, {"claim-swizzle", ClaimSwizzle},
	{"ablation-async", AblationAsync}, {"ablation-sched", AblationScheduler}, {"ablation-coherence", AblationCoherence},
	{"ablation-tiering", AblationTiering}, {"ablation-planner", AblationPlanner}, {"ablation-multijob", AblationMultiJob},
	{"ablation-recovery", AblationRecovery},
}

// IDs returns the artifact IDs in DESIGN.md order.
func IDs() []string {
	ids := make([]string, len(artifacts))
	for i, a := range artifacts {
		ids[i] = a.id
	}
	return ids
}

// Generate runs one artifact by ID.
func Generate(id string) (*Artifact, error) {
	for _, a := range artifacts {
		if a.id == id {
			return a.gen()
		}
	}
	return nil, fmt.Errorf("paper: unknown artifact %q (known: %s)", id, strings.Join(IDs(), ", "))
}

// table renders rows with a header in aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cols ...string) { t.rows = append(t.rows, cols) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len([]rune(h))
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len([]rune(c)); pad > 0 && i < len(cols)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	line(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// MetricKeys returns an artifact's metric names in sorted order, for
// deterministic rendering by cmd/paperbench.
func MetricKeys(a *Artifact) []string {
	out := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fmtDur renders nanosecond floats human-readably.
func fmtDur(ns float64) string {
	switch {
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.2fms", ns/1e6)
	default:
		return fmt.Sprintf("%.2fs", ns/1e9)
	}
}

// fmtBW renders bytes/second.
func fmtBW(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.1fGB/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.1fMB/s", bps/1e6)
	default:
		return fmt.Sprintf("%.0fB/s", bps)
	}
}

// yesNo renders booleans as the paper's check marks do.
func yesNo(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}
