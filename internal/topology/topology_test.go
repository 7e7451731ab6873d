package topology

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/memsim"
	"repro/internal/props"
)

func testbed(t *testing.T) *Topology {
	t.Helper()
	topo, err := BuildSingleNode(DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuildSingleNodeInventory(t *testing.T) {
	topo := testbed(t)
	if got := len(topo.ComputeSet().Devices); got != 5 { // 2 CPUs, GPU, TPU, FPGA
		t.Errorf("compute count = %d, want 5", got)
	}
	for _, id := range []string{"node0/cpu0", "node0/cpu1", "node0/gpu0", "node0/tpu0", "node0/fpga0"} {
		if _, ok := topo.Compute(id); !ok {
			t.Errorf("missing compute %s", id)
		}
	}
	for _, id := range []string{"node0/dram0", "node0/dram1", "node0/hbm0", "node0/pmem0",
		"node0/cxl0", "node0/ssd0", "node0/hdd0", "node0/gddr0", "memnode0/far0", "memnode1/far0"} {
		if _, ok := topo.Memory(id); !ok {
			t.Errorf("missing memory %s", id)
		}
	}
}

func TestDuplicateIDsRejected(t *testing.T) {
	topo := New()
	c := &ComputeDevice{ID: "x", Kind: CPU, Gops: 1}
	if err := topo.AddCompute(c); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddCompute(&ComputeDevice{ID: "x", Kind: GPU, Gops: 1}); err == nil {
		t.Error("duplicate compute id must be rejected")
	}
	d, _ := memsim.NewDevice("x", memsim.DRAMSpec())
	if err := topo.AddMemory(d); err == nil {
		t.Error("memory id colliding with compute id must be rejected")
	}
}

func TestConnectValidation(t *testing.T) {
	topo := New()
	if err := topo.Connect(Link{A: "a", B: "a", Latency: 1, Bandwidth: 1}); err == nil {
		t.Error("self-link must be rejected")
	}
	if err := topo.Connect(Link{A: "a", B: "b", Latency: 1, Bandwidth: 0}); err == nil {
		t.Error("zero-bandwidth link must be rejected")
	}
	if err := topo.Connect(Link{A: "", B: "b", Latency: 1, Bandwidth: 1}); err == nil {
		t.Error("empty endpoint must be rejected")
	}
}

func TestPathLocalDRAM(t *testing.T) {
	topo := testbed(t)
	p, ok := topo.Path("node0/cpu0", "node0/dram0")
	if !ok {
		t.Fatal("no path cpu0→dram0")
	}
	if len(p.Hops) != 1 || p.Latency != memBusLat {
		t.Errorf("cpu0→dram0 should be one membus hop, got %d hops lat %v", len(p.Hops), p.Latency)
	}
	if !p.Coherent {
		t.Error("memory bus path must be coherent")
	}
}

func TestPathCrossSocketNUMA(t *testing.T) {
	topo := testbed(t)
	local, _ := topo.Path("node0/cpu0", "node0/dram0")
	remote, ok := topo.Path("node0/cpu0", "node0/dram1")
	if !ok {
		t.Fatal("no path to remote socket DRAM")
	}
	if remote.Latency <= local.Latency {
		t.Errorf("remote socket (%v) must cost more than local (%v)", remote.Latency, local.Latency)
	}
	if len(remote.Hops) != 2 { // UPI + membus
		t.Errorf("remote DRAM path should be 2 hops, got %d", len(remote.Hops))
	}
	if !remote.Coherent {
		t.Error("UPI path stays coherent")
	}
}

func TestPathToFarMemoryNotCoherent(t *testing.T) {
	topo := testbed(t)
	p, ok := topo.Path("node0/cpu0", "memnode0/far0")
	if !ok {
		t.Fatal("no path to far memory")
	}
	if p.Coherent {
		t.Error("NIC path must not be coherent")
	}
	if p.Bandwidth > nicBW {
		t.Errorf("fabric path bandwidth %v must be capped by NIC (%v)", p.Bandwidth, nicBW)
	}
}

func TestPathIdentity(t *testing.T) {
	topo := testbed(t)
	p, ok := topo.Path("node0/cpu0", "node0/cpu0")
	if !ok || p.Latency != 0 || len(p.Hops) != 0 || !math.IsInf(p.Bandwidth, 1) {
		t.Errorf("identity path must be free, got %+v ok=%t", p, ok)
	}
}

func TestPathMissing(t *testing.T) {
	topo := New()
	if _, ok := topo.Path("nowhere", "elsewhere"); ok {
		t.Error("path between unknown endpoints must not exist")
	}
}

func TestEffectiveCapsFigure3(t *testing.T) {
	// Figure 3: the same "fast local scratch" view differs per compute
	// device — DRAM is the CPU's fast tier, GDDR the GPU's.
	topo := testbed(t)
	cpuDRAM, ok := topo.EffectiveCaps("node0/cpu0", "node0/dram0")
	if !ok {
		t.Fatal("no caps cpu→dram")
	}
	cpuGDDR, ok := topo.EffectiveCaps("node0/cpu0", "node0/gddr0")
	if !ok {
		t.Fatal("no caps cpu→gddr")
	}
	gpuDRAM, ok := topo.EffectiveCaps("node0/gpu0", "node0/dram0")
	if !ok {
		t.Fatal("no caps gpu→dram")
	}
	gpuGDDR, ok := topo.EffectiveCaps("node0/gpu0", "node0/gddr0")
	if !ok {
		t.Fatal("no caps gpu→gddr")
	}
	if cpuDRAM.Latency >= cpuGDDR.Latency {
		t.Errorf("from CPU, DRAM (%v) must beat GDDR (%v)", cpuDRAM.Latency, cpuGDDR.Latency)
	}
	if gpuGDDR.Latency >= gpuDRAM.Latency {
		t.Errorf("from GPU, GDDR (%v) must beat DRAM (%v)", gpuGDDR.Latency, gpuDRAM.Latency)
	}
	if gpuGDDR.Bandwidth <= gpuDRAM.Bandwidth {
		t.Error("GPU sees more bandwidth from GDDR than from host DRAM")
	}
}

func TestEffectiveCapsRemoteAndSync(t *testing.T) {
	topo := testbed(t)
	far, ok := topo.EffectiveCaps("node0/cpu0", "memnode0/far0")
	if !ok {
		t.Fatal("no caps to far memory")
	}
	if !far.Remote {
		t.Error("far memory must be flagged remote")
	}
	if far.Sync {
		t.Error("NIC-attached memory must not offer a sync interface")
	}
	if far.Coherent {
		t.Error("far memory is not coherent")
	}
	dram, _ := topo.EffectiveCaps("node0/cpu0", "node0/dram0")
	if dram.Remote || !dram.Sync || !dram.Coherent {
		t.Error("local DRAM must be sync, coherent, non-remote")
	}
}

func TestEffectiveCapsUnknownIDs(t *testing.T) {
	topo := testbed(t)
	if _, ok := topo.EffectiveCaps("node0/cpu0", "nope"); ok {
		t.Error("unknown memory must fail")
	}
	if _, ok := topo.EffectiveCaps("nope", "node0/dram0"); ok {
		t.Error("unknown compute must fail")
	}
}

func TestEffectiveCapsMatchTable2Regions(t *testing.T) {
	// The testbed must be able to serve all three predefined region classes
	// from a CPU.
	topo := testbed(t)
	for _, class := range []props.RegionClass{props.PrivateScratch, props.GlobalState, props.GlobalScratch} {
		req := class.Defaults()
		found := false
		for _, m := range topo.Memories() {
			caps, ok := topo.EffectiveCaps("node0/cpu0", m.ID)
			if !ok {
				continue
			}
			if ok, _ := req.Match(caps); ok {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no device on the testbed serves %s %s", class, req)
		}
	}
}

func TestAccessTimeIncludesPath(t *testing.T) {
	topo := testbed(t)
	dram, _ := topo.Memory("node0/dram0")
	svc := dram.ServiceTime(64, memsim.Read, memsim.Sequential)
	done, err := topo.NewEpoch().AccessTime("node0/cpu0", "node0/dram0", 0, 64, memsim.Read, memsim.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if want := svc + 2*memBusLat; done != want {
		t.Errorf("AccessTime = %v, want svc+2×path = %v", done, want)
	}
}

func TestAccessTimeNarrowPathStretchesTransfer(t *testing.T) {
	topo := testbed(t)
	// Far memory: device claims 12 GB/s but NIC path is narrower in latency
	// terms; a large transfer must be slower than the device-only service.
	far, _ := topo.Memory("memnode0/far0")
	const size = 64 << 20
	svc := far.ServiceTime(size, memsim.Read, memsim.Sequential)
	done, err := topo.NewEpoch().AccessTime("node0/cpu0", "memnode0/far0", 0, size, memsim.Read, memsim.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if done <= svc {
		t.Errorf("fabric transfer (%v) must exceed device service (%v)", done, svc)
	}
}

func TestAccessTimeErrors(t *testing.T) {
	topo := testbed(t)
	if _, err := topo.NewEpoch().AccessTime("node0/cpu0", "nope", 0, 64, memsim.Read, memsim.Sequential); err == nil {
		t.Error("unknown device must error")
	}
	iso := New()
	d, _ := memsim.NewDevice("island", memsim.DRAMSpec())
	if err := iso.AddMemory(d); err != nil {
		t.Fatal(err)
	}
	if err := iso.AddCompute(&ComputeDevice{ID: "c", Kind: CPU, Gops: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := iso.NewEpoch().AccessTime("c", "island", 0, 64, memsim.Read, memsim.Sequential); err == nil {
		t.Error("unreachable device must error")
	}
}

func TestAddressable(t *testing.T) {
	topo := testbed(t)
	if !topo.Addressable("node0/gpu0", "node0/dram0") {
		t.Error("GPU must address host DRAM over PCIe")
	}
	if !topo.Addressable("node0/cpu1", "node0/gddr0") {
		t.Error("remote-socket CPU must address GDDR via UPI+PCIe")
	}
}

func TestComputesByKind(t *testing.T) {
	topo := testbed(t)
	if got := len(topo.ComputeSet().ByKind(CPU)); got != 2 {
		t.Errorf("CPU count = %d, want 2", got)
	}
	if got := len(topo.ComputeSet().ByKind(GPU)); got != 1 {
		t.Errorf("GPU count = %d, want 1", got)
	}
}

func TestBuildRack(t *testing.T) {
	topo, err := BuildRack(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.ComputeSet().Devices) != 4 {
		t.Errorf("rack computes = %d, want 4", len(topo.ComputeSet().Devices))
	}
	if len(topo.Memories()) != 6 { // 4 local DRAM + 2 far
		t.Errorf("rack memories = %d, want 6", len(topo.Memories()))
	}
	// Any CPU can reach any far node and any other node's DRAM via fabric.
	if !topo.Addressable("rack/node0/cpu0", "rack/memnode1/far0") {
		t.Error("node0 must reach memnode1")
	}
	if !topo.Addressable("rack/node3/cpu0", "rack/node0/dram0") {
		t.Error("node3 must reach node0 DRAM over fabric")
	}
	if _, err := BuildRack(0, 1); err == nil {
		t.Error("empty rack must be rejected")
	}
}

// Property: path latency satisfies the triangle inequality through any
// intermediate endpoint the router might choose (routing is optimal).
func TestPathOptimalityProperty(t *testing.T) {
	topo := testbed(t)
	var ids []string
	for _, c := range topo.ComputeSet().Devices {
		ids = append(ids, c.ID)
	}
	for _, m := range topo.Memories() {
		ids = append(ids, m.ID)
	}
	f := func(a, b, c uint8) bool {
		x, y, z := ids[int(a)%len(ids)], ids[int(b)%len(ids)], ids[int(c)%len(ids)]
		pxy, ok1 := topo.Path(x, y)
		pxz, ok2 := topo.Path(x, z)
		pzy, ok3 := topo.Path(z, y)
		if !ok1 || !ok2 || !ok3 {
			return true
		}
		return pxy.Latency <= pxz.Latency+pzy.Latency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: paths are symmetric in latency (all links are bidirectional).
func TestPathSymmetryProperty(t *testing.T) {
	topo := testbed(t)
	var ids []string
	for _, m := range topo.Memories() {
		ids = append(ids, m.ID)
	}
	f := func(a, b uint8) bool {
		x, y := ids[int(a)%len(ids)], ids[int(b)%len(ids)]
		pxy, ok1 := topo.Path(x, y)
		pyx, ok2 := topo.Path(y, x)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return pxy.Latency == pyx.Latency && pxy.Bandwidth == pyx.Bandwidth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestScaleCapHook(t *testing.T) {
	cfg := DefaultSingleNode()
	cfg.ScaleCap = func(s memsim.Spec) memsim.Spec {
		s.Capacity = 1 << 20
		return s
	}
	topo, err := BuildSingleNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range topo.Memories() {
		if m.Capacity != 1<<20 {
			t.Fatalf("%s capacity = %d, want scaled 1 MiB", m.ID, m.Capacity)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" || TPU.String() != "TPU" || FPGA.String() != "FPGA" {
		t.Error("compute kind names wrong")
	}
	if LinkUPI.String() != "UPI" || LinkNIC.String() != "NIC" || LinkPCIe.String() != "PCIe/CXL" {
		t.Error("link kind names wrong")
	}
}

var sinkPath PathInfo

func BenchmarkPathRouting(b *testing.B) {
	topo, err := BuildSingleNode(DefaultSingleNode())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := topo.Path("node0/gpu0", "memnode1/far0")
		sinkPath = p
	}
}

var sinkDur time.Duration

func BenchmarkAccessTime(b *testing.B) {
	topo, err := BuildSingleNode(DefaultSingleNode())
	if err != nil {
		b.Fatal(err)
	}
	view := topo.NewTaskView()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := view.AccessTime("node0/cpu0", "node0/dram0", 0, 4096, memsim.Read, memsim.Sequential)
		sinkDur = d
	}
}

// MustSingleNode builds the default testbed and panics on error: its
// configuration is static and known-good.
func MustSingleNode() *Topology {
	t, err := BuildSingleNode(DefaultSingleNode())
	if err != nil {
		panic(err)
	}
	return t
}

// TestMustSingleNodeAndFreshEpoch: an access advances its own epoch's queue
// and no other, so a fresh epoch sees every device drained.
func TestMustSingleNodeAndFreshEpoch(t *testing.T) {
	topo := MustSingleNode()
	used := topo.NewEpoch()
	if _, err := used.AccessTime("node0/cpu0", "node0/dram0", 0, 1<<20, memsim.Read, memsim.Sequential); err != nil {
		t.Fatal(err)
	}
	if busyUntil(used, "node0/dram0") == 0 {
		t.Fatal("access must advance the queue")
	}
	if got := busyUntil(topo.NewEpoch(), "node0/dram0"); got != 0 {
		t.Errorf("a fresh epoch sees dram0 busy until %v, want drained", got)
	}
}

func TestComputeKindUnknownString(t *testing.T) {
	if ComputeKind(9).String() == "" || LinkKind(9).String() == "" {
		t.Error("unknown enum values must render")
	}
	if LinkOnChip.String() != "on-chip" || LinkMemBus.String() != "membus" || LinkSATA.String() != "SATA" {
		t.Error("link names wrong")
	}
}

func TestBuildSingleNodeVariants(t *testing.T) {
	// Minimal config: no accelerators, no far memory.
	topo, err := BuildSingleNode(SingleNodeConfig{Sockets: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.ComputeSet().Devices) != 1 {
		t.Errorf("computes = %d, want 1 CPU", len(topo.ComputeSet().Devices))
	}
	if _, ok := topo.Memory("node0/cache0"); !ok {
		t.Error("every socket has its cache")
	}
	if _, ok := topo.Memory("node0/gddr0"); ok {
		t.Error("no GPU means no GDDR")
	}
	if _, ok := topo.Memory("memnode0/far0"); ok {
		t.Error("no far memory requested")
	}
	// Four sockets wire a UPI chain.
	topo4, err := BuildSingleNode(SingleNodeConfig{Sockets: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := topo4.Path("node0/cpu0", "node0/dram3")
	if !ok {
		t.Fatal("no path across the UPI chain")
	}
	if len(p.Hops) != 4 { // 3×UPI + membus
		t.Errorf("cpu0→dram3 hops = %d, want 4", len(p.Hops))
	}
}
