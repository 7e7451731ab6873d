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
		t.Error("ComputeSet must be resolved once per graph version")
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

// TestGraphChangesDropTheComputeSet: AddCompute and Connect each resolve a
// new set; a device keeps its index, a new link shows in Link.
func TestGraphChangesDropTheComputeSet(t *testing.T) {
	topo := testbed(t)
	before := topo.ComputeSet()
	if _, _, ok := before.Link(0, 1); !ok {
		t.Fatal("the testbed's two CPUs must be linked")
	}
	extra := &ComputeDevice{ID: "node0/extra", Kind: FPGA, Gops: 1, Cores: 3}
	if err := topo.AddCompute(extra); err != nil {
		t.Fatal(err)
	}
	grown := topo.ComputeSet()
	if grown == before {
		t.Fatal("AddCompute must drop the resolved ComputeSet")
	}
	if n := len(before.Devices); len(grown.Devices) != n+1 || extra.Index() != n || grown.Devices[n] != extra ||
		grown.NumCores() != before.NumCores()+3 || len(before.Devices) != n {
		t.Errorf("grown set: %d devices, extra at %d, %d cores; before: %d devices, %d cores",
			len(grown.Devices), extra.Index(), grown.NumCores(), len(before.Devices), before.NumCores())
	}
	for i, c := range before.Devices {
		if grown.Devices[i] != c {
			t.Errorf("device %d changed from %s to %s", i, c.ID, grown.Devices[i].ID)
		}
	}
	if _, _, ok := grown.Link(extra.Index(), 0); ok {
		t.Error("an unconnected device must have no link")
	}
	if err := topo.Connect(Link{A: extra.ID, B: "node0/cpu0", Kind: LinkPCIe, Latency: 300 * time.Nanosecond, Bandwidth: 1e9}); err != nil {
		t.Fatal(err)
	}
	linked := topo.ComputeSet()
	if linked == grown {
		t.Fatal("Connect must drop the resolved ComputeSet")
	}
	cpu0, _ := topo.Compute("node0/cpu0")
	if lat, bw, ok := linked.Link(extra.Index(), cpu0.Index()); !ok || lat != 300*time.Nanosecond || bw != 1e9 {
		t.Errorf("Link over the new link = %v, %v, %v", lat, bw, ok)
	}
}
