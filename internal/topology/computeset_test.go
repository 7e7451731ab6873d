package topology

import (
	"math"
	"testing"
	"time"
)

// TestComputeSetDescribesTheComputes: devices by dense index, per-kind lists,
// core windows that tile one flat table, links equal to the string-keyed
// Path.
func TestComputeSetDescribesTheComputes(t *testing.T) {
	topo := testbed(t)
	cs := topo.ComputeSet()
	if cs != topo.ComputeSet() {
		t.Error("ComputeSet must be resolved once per graph")
	}
	total := 0
	table := make([]time.Duration, cs.NumCores())
	for i, c := range cs.Devices {
		if c.Index() != i {
			t.Errorf("%s: Index() = %d at position %d", c.ID, c.Index(), i)
		}
		if got, _ := topo.Compute(c.ID); got != c {
			t.Errorf("%s: not the registered device", c.ID)
		}
		w := cs.Cores(table, i)
		if len(w) != c.Cores {
			t.Errorf("%s: core window of %d, %d cores", c.ID, len(w), c.Cores)
		}
		for k := range w {
			w[k]++ // every cell of the table must belong to exactly one device
		}
		total += c.Cores
	}
	if cs.NumCores() != total || total != 152 {
		t.Errorf("NumCores() = %d, cores sum to %d, the reference testbed has 152", cs.NumCores(), total)
	}
	for i, n := range table {
		if n != 1 {
			t.Fatalf("core cell %d is in %d windows", i, n)
		}
	}
	for _, k := range []ComputeKind{CPU, GPU, TPU, FPGA} {
		var want []*ComputeDevice
		for _, c := range cs.Devices {
			if c.Kind == k {
				want = append(want, c)
			}
		}
		got := cs.ByKind(k)
		if len(got) != len(want) {
			t.Fatalf("ByKind(%s) lists %d devices, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("ByKind(%s)[%d] = %s, want %s (insertion order)", k, i, got[i].ID, want[i].ID)
			}
		}
	}
	for _, a := range cs.Devices {
		for _, b := range cs.Devices {
			if a == b {
				continue
			}
			p, ok := topo.Path(a.ID, b.ID)
			lat, bw, linked := cs.Link(a.Index(), b.Index())
			if linked != ok || lat != p.Latency || bw != p.Bandwidth || math.IsInf(bw, 1) {
				t.Errorf("Link(%s, %s) = %v, %v, %v; Path says %v, %v, %v", a.ID, b.ID, lat, bw, linked, p.Latency, p.Bandwidth, ok)
			}
		}
	}
}
