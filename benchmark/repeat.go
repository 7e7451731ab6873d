package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"text/tabwriter"
)

// repeat is the A/A mode: every workload runs o.repeat times in fresh
// processes of this same binary, untraced and traced, and the run-to-run
// spread of each end-to-end metric (interquartile range over median) must
// stay inside the metric's own bound. Exact metrics must not move at all.
// A bound the same code cannot hold against itself cannot gate a change.
func repeat(o options, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var broken []string
	for _, s := range specs {
		for trace, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
			samples := map[string][]float64{}
			for i := 0; i < o.repeat; i++ {
				line, err := child(self, o, s.name, trace)
				if err != nil {
					return fmt.Errorf("%s run %d: %w", s.name, i, err)
				}
				for name, v := range line.Metrics {
					samples[name] = append(samples[name], v.Value)
				}
			}
			fmt.Fprintf(w, "== %s, trace %d, %d runs\n", s.name, trace, o.repeat)
			tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
			fmt.Fprintln(tw, "metric\tq1\tmedian\tq3\tspread\tbound\t")
			for _, d := range defs {
				vs := samples[d.name]
				sp, verdict := spread(vs), ""
				switch {
				case d.exact && o.seconds == 0 && slices.Max(vs) != slices.Min(vs):
					verdict = "NOT EXACT"
				case !o.smoke && d.bound > 0 && sp > d.bound:
					verdict = "SPREAD EXCEEDS BOUND"
				}
				if verdict != "" {
					broken = append(broken, fmt.Sprintf("%s %s: %s", s.name, d.name, verdict))
				}
				q1, q2, q3 := quartiles(vs)
				fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%.4f\t%g\t%s\n", d.name, q1, q2, q3, sp, d.bound, verdict)
			}
			tw.Flush()
		}
	}
	if len(broken) > 0 {
		return fmt.Errorf("A/A check failed: %q", broken)
	}
	return nil
}

// child runs one workload once in a fresh process and parses the last line
// of its output.
func child(self string, o options, workload string, trace int) (*harnessLine, error) {
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", o.out,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(outb)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var line harnessLine
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &line, nil
}
