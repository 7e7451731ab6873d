package stream

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataflow"
)

// events returns n events keyed 0..n-1, event i carrying i%5 payload bytes.
func events(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{Key: uint64(i), Payload: make([]byte, i%5)}
	}
	return out
}

func TestPull(t *testing.T) {
	for _, tc := range []struct {
		name      string
		have, ask int
		want      int
		more      bool
	}{
		{"short source", 3, 5, 3, false},
		{"exact multiple", 4, 4, 4, true},
		{"longer source", 9, 4, 4, true},
		{"empty", 0, 4, 0, false},
		{"ask for nothing", 3, 0, 0, true},
	} {
		src := NewSliceSource(events(tc.have))
		got, more := Pull(src, tc.ask)
		if len(got) != tc.want || more != tc.more {
			t.Errorf("%s: Pull = %d events, more=%v; want %d, %v", tc.name, len(got), more, tc.want, tc.more)
		}
		for i, ev := range got {
			if ev.Key != uint64(i) {
				t.Errorf("%s: event %d has key %d: Pull reordered the source", tc.name, i, ev.Key)
			}
		}
	}
	// An exact multiple only reports exhaustion on the pull after the last
	// full batch: that pull is empty, which is how the driver sees the end.
	src := NewSliceSource(events(8))
	for pull, want := range []int{4, 4, 0} {
		got, more := Pull(src, 4)
		if len(got) != want || more != (want != 0) {
			t.Errorf("pull %d of an 8-event source by 4 = %d events, more=%v", pull, len(got), more)
		}
	}
	calls := 0
	fn := SourceFunc(func() (Event, bool) { calls++; return Event{Key: 9}, calls <= 2 })
	if got, more := Pull(fn, 5); len(got) != 2 || more || calls != 3 {
		t.Errorf("Pull over a SourceFunc = %d events, more=%v after %d calls; want 2, false, 3", len(got), more, calls)
	}
}

func TestWindowPartition(t *testing.T) {
	w := Window{Events: events(23)}
	for _, p := range []int{1, 2, 7, 23, 40} {
		parts := w.Partition(p)
		if len(parts) != p {
			t.Fatalf("Partition(%d) made %d groups", p, len(parts))
		}
		seen := map[uint64]int{}
		for i, part := range parts {
			last := -1
			for _, ev := range part {
				seen[ev.Key]++
				if ev.Key%uint64(p) != uint64(i) {
					t.Errorf("p=%d: key %d landed in partition %d", p, ev.Key, i)
				}
				if int(ev.Key) <= last {
					t.Errorf("p=%d: partition %d lost arrival order at key %d", p, i, ev.Key)
				}
				last = int(ev.Key)
			}
		}
		if len(seen) != len(w.Events) {
			t.Errorf("p=%d: %d of %d events were placed", p, len(seen), len(w.Events))
		}
		for key, n := range seen {
			if n != 1 {
				t.Errorf("p=%d: key %d placed %d times", p, key, n)
			}
		}
	}
	// A key's partition depends on the key and p alone, not on the window.
	a := Window{Events: []Event{{Key: 12}, {Key: 5}}}.Partition(4)
	b := Window{Events: []Event{{Key: 5}, {Key: 3}, {Key: 12}}}.Partition(4)
	if len(a[0]) != 1 || len(b[0]) != 1 || a[0][0].Key != 12 || b[0][0].Key != 12 || a[1][0].Key != 5 || b[1][0].Key != 5 {
		t.Errorf("keys 12 and 5 moved between windows: %v vs %v", a, b)
	}
	for _, p := range []int{0, -3} {
		if parts := w.Partition(p); len(parts) != 1 || len(parts[0]) != len(w.Events) {
			t.Errorf("Partition(%d) = %d groups; p < 1 means one group of everything", p, len(parts))
		}
	}
	if parts := (Window{}).Partition(3); len(parts) != 3 || parts[0] != nil {
		t.Errorf("empty window Partition(3) = %v", parts)
	}
}

func TestWindowBytes(t *testing.T) {
	if got := (Window{}).Bytes(); got != 0 {
		t.Errorf("empty window Bytes = %d", got)
	}
	// Payload lengths 0,1,2,3,4,0,1,2,3,4,0,1.
	if got := (Window{Events: events(12)}).Bytes(); got != 21 {
		t.Errorf("Bytes = %d, want 21", got)
	}
}

func TestSpecValidate(t *testing.T) {
	ok := Spec{
		Name: "s", Source: NewSliceSource(nil), WindowSize: 4,
		Build: func(Window, *dataflow.Job) error { return nil },
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, tc := range []struct {
		why  string
		edit func(*Spec)
		says string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "no name"},
		{"percent in name", func(s *Spec) { s.Name = "50%" }, "must not contain %"},
		{"no source", func(s *Spec) { s.Source = nil }, "no source"},
		{"zero window", func(s *Spec) { s.WindowSize = 0 }, "window size 0"},
		{"negative window", func(s *Spec) { s.WindowSize = -2 }, "window size -2"},
		{"no builder", func(s *Spec) { s.Build = nil }, "no window builder"},
		{"negative in-flight", func(s *Spec) { s.MaxInFlight = -1 }, "negative in-flight"},
	} {
		s := ok
		tc.edit(&s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: Validate = %v, want an error saying %q", tc.why, err, tc.says)
		}
	}
}

func TestInFlightDefault(t *testing.T) {
	for in, want := range map[int]int{0: 2, -1: 2, 1: 1, 2: 2, 7: 7} {
		if got := (Spec{MaxInFlight: in}).InFlight(); got != want {
			t.Errorf("InFlight with MaxInFlight %d = %d, want %d", in, got, want)
		}
	}
}

// fanSpec builds per window: ingest → one agg task per non-empty partition →
// emit, sized by the window's bytes.
func fanSpec(partitions int) Spec {
	return Spec{
		Name: "fan", Source: NewSliceSource(nil), WindowSize: 8, Partitions: partitions,
		Build: func(w Window, j *dataflow.Job) error {
			ingest := j.Task("ingest", dataflow.Props{Ops: 1e3, OutputBytes: w.Bytes() + 1}, nil)
			emit := j.Task("emit", dataflow.Props{Ops: 1e3}, nil)
			for i, part := range w.Partition(partitions) {
				if len(part) == 0 {
					continue
				}
				agg := j.Task(fmt.Sprintf("agg%02d", i), dataflow.Props{Ops: float64(len(part)) * 1e3, OutputBytes: 8}, nil)
				ingest.Then(agg)
				agg.Then(emit)
			}
			return nil
		},
	}
}

// shape is a job's name, task IDs in rank order and edges by rank.
func shape(t *testing.T, j *dataflow.Job) string {
	t.Helper()
	g, err := j.Graph()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(j.Name())
	for k, task := range g.Order {
		fmt.Fprintf(&b, " %s<-%v(%d)", task.ID(), g.Preds(k), task.Props().OutputBytes)
	}
	return b.String()
}

func TestInstantiate(t *testing.T) {
	spec := fanSpec(3)
	evs := []Event{{Key: 0, Payload: []byte("ab")}, {Key: 3}, {Key: 2, Payload: []byte("c")}}
	a, err := spec.Instantiate(7, evs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "fan/w000007" {
		t.Errorf("window job named %q, want fan/w000007", a.Name())
	}
	if a.Len() != 4 { // ingest, agg00, agg02, emit: partition 1 is empty
		t.Errorf("window job has %d tasks, want 4", a.Len())
	}
	// Same index and events: the same graph, task for task and edge for edge.
	b, err := spec.Instantiate(7, append([]Event(nil), evs...))
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := shape(t, a), shape(t, b); sa != sb {
		t.Errorf("two instantiations of one window differ:\n%s\n%s", sa, sb)
	}
	// Another index renames the job and nothing else; other events reshape it.
	c, err := spec.Instantiate(8, evs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shape(t, c), strings.Replace(shape(t, a), "w000007", "w000008", 1); got != want {
		t.Errorf("window 8 over the same events:\n%s\nwant\n%s", got, want)
	}
	d, err := spec.Instantiate(7, evs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Errorf("a one-event window has %d tasks, want 3", d.Len())
	}

	// A builder's error and an invalid graph both fail the instantiation,
	// naming the window.
	boom := errors.New("boom")
	bad := Spec{Name: "bad", Build: func(Window, *dataflow.Job) error { return boom }}
	if _, err := bad.Instantiate(2, nil); !errors.Is(err, boom) || !strings.Contains(err.Error(), "bad/w000002") {
		t.Errorf("builder error = %v, want boom naming bad/w000002", err)
	}
	cyclic := Spec{Name: "cyc", Build: func(_ Window, j *dataflow.Job) error {
		x := j.Task("x", dataflow.Props{}, nil)
		y := j.Task("y", dataflow.Props{}, nil)
		x.Then(y)
		y.Then(x)
		return nil
	}}
	if _, err := cyclic.Instantiate(0, nil); err == nil {
		t.Error("a cyclic window graph was instantiated")
	}
}
