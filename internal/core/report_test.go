package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dataflow"
	"repro/internal/workload"
)

// TestReportHasNoMaps: every table of a report is a slice in rank or key
// order, so a served job makes no map for its report, and a report compares
// and renders in one order. No map type may be reachable from Report.
func TestReportHasNoMaps(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Map:
			t.Errorf("%s is a map (%s)", path, typ)
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Report{}), "Report")
}

// TestReportAccessors: Task finds a task's report by ID and Region a
// placement by label, and each table is in the order its field promises —
// Tasks and FinalOutputs by rank, Regions by label, PeakDeviceBytes by device.
func TestReportAccessors(t *testing.T) {
	rep, err := newRuntime(t).Run(workload.Hospital(workload.DefaultHospital()))
	if err != nil {
		t.Fatal(err)
	}
	pre := rep.Task("preprocess")
	if pre == nil || pre.Task != "preprocess" {
		t.Fatalf("Task(preprocess) = %+v", pre)
	}
	if got := rep.Task("no-such-task"); got != nil {
		t.Errorf("Task of a missing ID = %+v, want nil", got)
	}
	if got := pre.Region("framebuf"); got != "node0/gddr0" {
		t.Errorf("Region(framebuf) = %q, want node0/gddr0", got)
	}
	if got := pre.Region("no-such-label"); got != "" {
		t.Errorf("Region of a missing label = %q, want empty", got)
	}

	rank := map[string]int{}
	for k := range rep.Tasks {
		tr := &rep.Tasks[k]
		rank[tr.Task] = k
		if !slices.IsSortedFunc(tr.Regions, func(a, b RegionPlacement) int { return strings.Compare(a.Label, b.Label) }) {
			t.Errorf("%s: Regions not in label order: %v", tr.Task, tr.Regions)
		}
		for i := 1; i < len(tr.Regions); i++ {
			if tr.Regions[i-1].Label == tr.Regions[i].Label {
				t.Errorf("%s: label %s listed twice", tr.Task, tr.Regions[i].Label)
			}
		}
		if cap(tr.Regions) != len(tr.Regions) {
			t.Errorf("%s: Regions has room past its end (cap %d, len %d): an append would write into the next task's", tr.Task, cap(tr.Regions), len(tr.Regions))
		}
	}
	if len(rep.FinalOutputs) == 0 {
		t.Fatal("hospital retained no final output")
	}
	for i := 1; i < len(rep.FinalOutputs); i++ {
		if rank[rep.FinalOutputs[i-1].Task] >= rank[rep.FinalOutputs[i].Task] {
			t.Errorf("FinalOutputs not in rank order: %v", rep.FinalOutputs)
		}
	}
	if len(rep.PeakDeviceBytes) == 0 {
		t.Fatal("no peak recorded")
	}
	for i, p := range rep.PeakDeviceBytes {
		if p.Bytes <= 0 {
			t.Errorf("device %s listed with a peak of %d", p.Device, p.Bytes)
		}
		if i > 0 && rep.PeakDeviceBytes[i-1].Device >= p.Device {
			t.Errorf("PeakDeviceBytes not in device order: %v", rep.PeakDeviceBytes)
		}
	}
}

// TestReportTailsAreClipped: a served report's tails — PeakDeviceBytes,
// FinalOutputs and every task's Regions — are windows of the report's own
// storage or of one spill, each with room for exactly its length, so an append
// to one moves it out: it writes into none of the others, and two appends to
// the same tail do not write into each other. The jobs have room to spare in
// the inline storage (one peak of two) and spill past it (a wide fan-out's
// placements).
func TestReportTailsAreClipped(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1})
	spilled, inline := false, false
	for _, job := range []*dataflow.Job{
		pipelineJob("pipeline"),
		workload.Hospital(workload.DefaultHospital()),
		wideJob("wide", 8),
		workload.StreamWindow(workload.DefaultStream(), 0),
	} {
		rep, err := s.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		placed := 0
		for _, tr := range rep.Tasks {
			placed += len(tr.Regions)
		}
		spilled = spilled || placed > inlinePlacements
		inline = inline || placed <= inlinePlacements && len(rep.PeakDeviceBytes) < inlinePeaks
		tails := func() string {
			b := fmt.Sprint(rep.PeakDeviceBytes, rep.FinalOutputs)
			for _, tr := range rep.Tasks {
				b += fmt.Sprint(tr.Regions)
			}
			return b
		}
		before := tails()
		ok := appendTwice(rep.PeakDeviceBytes, DeviceBytes{Device: "a"}, DeviceBytes{Device: "b"}) &&
			appendTwice(rep.FinalOutputs, TaskOutput{Task: "a"}, TaskOutput{Task: "b"})
		for _, tr := range rep.Tasks {
			ok = appendTwice(tr.Regions, RegionPlacement{Label: "a"}, RegionPlacement{Label: "b"}) && ok
		}
		if !ok {
			t.Errorf("%s: two appends to one tail wrote the same storage", job.Name())
		}
		if after := tails(); after != before {
			t.Errorf("%s: appending to a tail wrote into another:\nbefore %s\nafter  %s", job.Name(), before, after)
		}
	}
	if !spilled || !inline {
		t.Errorf("spilled %v, fitted with room to spare %v: the jobs must do both", spilled, inline)
	}
}

// appendTwice appends a to s and then b to s, and reports whether the first
// append still reads a: it does unless both wrote the same storage.
func appendTwice[T comparable](s []T, a, b T) bool {
	first := append(s, a)
	_ = append(s, b)
	return first[len(s)] == a
}

// TestReportFillsItsSizeClass: a succeeded job's report is one allocation with
// its tails, and its inline storage fills the 576-byte size class: one more
// peak, output or placement would take it into the 640-byte class. An object
// over 512 bytes that holds pointers carries an 8-byte header besides.
func TestReportFillsItsSizeClass(t *testing.T) {
	const class = 576
	size := unsafe.Sizeof(Report{}) + 8
	smallest := min(unsafe.Sizeof(DeviceBytes{}), unsafe.Sizeof(TaskOutput{}), unsafe.Sizeof(RegionPlacement{}))
	if size > class || size+smallest <= class {
		t.Errorf("a Report is %d bytes with its header (%d peaks, %d outputs, %d placements inline): it does not fill the %d-byte size class",
			size, inlinePeaks, inlineOutputs, inlinePlacements, class)
	}
}

// TestRelabelKeepsLastDevice: a label a task places twice is listed once, on
// the device of its last placement — here an output, then a persistent
// scratch region under the same label.
func TestRelabelKeepsLastDevice(t *testing.T) {
	var first, last string
	j := dataflow.NewJob("relabel")
	j.Task("t", dataflow.Props{Persistent: true}, func(ctx dataflow.Ctx) error {
		out, err := ctx.Output(64)
		if err != nil {
			return err
		}
		if first, err = out.DeviceID(); err != nil {
			return err
		}
		h, err := ctx.Scratch("out", 64)
		if err != nil {
			return err
		}
		last, err = h.DeviceID()
		return err
	})
	rep, err := newRuntime(t).Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if first == last {
		t.Fatalf("both placements on %s: the test needs two devices", first)
	}
	tr := rep.Task("t")
	if want := []RegionPlacement{{Label: "out", Device: last}}; !reflect.DeepEqual(tr.Regions, want) {
		t.Errorf("Regions = %v, want %v (the output was on %s)", tr.Regions, want, first)
	}
}

// TestServingMixPlacementsFitInline: a task collects its placements in its
// context's inline room first, and the room is sized so that no task of the
// benchmark's serving mix spills out of it: the mix's nil-body and real
// (graph, DBMS) draws and the stream windows. It logs the most labels a task
// of each workload makes, the Table 3 jobs outside the serving mix too.
func TestServingMixPlacementsFitInline(t *testing.T) {
	room := len(taskCtx{}.placed)
	draws := func(realFraction float64) []*dataflow.Job {
		mix := workload.NewMix(workload.MixConfig{Seed: 42, RealFraction: realFraction})
		jobs := make([]*dataflow.Job, 32)
		for i := range jobs {
			jobs[i] = mix.Next()
		}
		return jobs
	}
	scfg := workload.StreamConfig{Windows: 4, WindowSize: 64, EventSize: 64, Keys: 16, Partitions: 2, MaxInFlight: 4}
	var windows []*dataflow.Job
	for w := 0; w < scfg.Windows; w++ {
		windows = append(windows, workload.StreamWindow(scfg, w))
	}
	for _, fam := range []struct {
		name    string
		jobs    []*dataflow.Job
		serving bool
	}{
		{"mix nil-body", draws(-1), true},
		{"mix real (graph, dbms)", draws(1), true},
		{"stream window", windows, true},
		{"hospital", []*dataflow.Job{workload.Hospital(workload.DefaultHospital())}, false},
		{"ml", []*dataflow.Job{workload.ML(workload.DefaultML())}, false},
		{"hpc", []*dataflow.Job{workload.HPC(workload.DefaultHPC())}, false},
	} {
		most, which := 0, ""
		for _, j := range fam.jobs {
			rep, err := newRuntime(t).Run(j)
			if err != nil {
				t.Fatalf("%s: %v", fam.name, err)
			}
			for _, tr := range rep.Tasks {
				if len(tr.Regions) > most {
					most, which = len(tr.Regions), j.Name()+"/"+tr.Task
				}
			}
		}
		t.Logf("%-24s at most %d labels a task (%s)", fam.name, most, which)
		if fam.serving && most > room {
			t.Errorf("%s: %s labels %d regions, the context's inline room holds %d", fam.name, which, most, room)
		}
	}
}

// TestNoteDeviceKeepsLabelOrder: placements noted in any order, past the
// context's inline room, come out one per label in label order.
func TestNoteDeviceKeepsLabelOrder(t *testing.T) {
	var c taskCtx
	c.regions = c.placed[:0]
	for _, p := range []RegionPlacement{{"b", "d1"}, {"d", "d2"}, {"c", "d3"}, {"a", "d4"}, {"b", "d5"}} {
		c.noteDevice(p.Label, p.Device)
	}
	want := []RegionPlacement{{"a", "d4"}, {"b", "d5"}, {"c", "d3"}, {"d", "d2"}}
	if len(want) <= len(c.placed) {
		t.Fatalf("%d labels fit the inline room of %d: the test spills nothing", len(want), len(c.placed))
	}
	if !reflect.DeepEqual(c.regions, want) {
		t.Errorf("regions = %v, want %v", c.regions, want)
	}
}
