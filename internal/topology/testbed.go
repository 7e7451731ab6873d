package topology

import (
	"fmt"
	"time"

	"repro/internal/memsim"
)

// This file builds the reference testbeds used throughout tests, examples,
// and the paper-artifact benches. The single-node testbed mirrors the
// paper's Figure 1a: two CPU sockets with local DRAM, HBM and PMem, a GPU
// with GDDR, a TPU and an FPGA on PCIe/CXL, a CXL-DRAM expansion card, an
// SSD, an HDD, and a NIC reaching pooled far memory on memory nodes.

// Link latency/bandwidth constants for the reference interconnects.
const (
	memBusLat  = 10 * time.Nanosecond
	upiLat     = 60 * time.Nanosecond // cross-socket hop, the NUMA penalty
	pcieLat    = 400 * time.Nanosecond
	cxlLat     = 80 * time.Nanosecond // CXL.mem port latency
	sataLat    = 500 * time.Microsecond
	nicLat     = 1200 * time.Nanosecond // per fabric hop (RDMA-class)
	memBusBW   = 200e9
	upiBW      = 60e9
	pcieBW     = 32e9
	cxlBW      = 45e9
	sataBW     = 600e6
	nicBW      = 25e9
	onNodeName = "node0"
)

// SingleNodeConfig tunes the reference single-node testbed.
type SingleNodeConfig struct {
	Sockets     int  // CPU sockets, default 2
	WithGPU     bool // add GPU + GDDR
	WithTPU     bool
	WithFPGA    bool
	WithFarMem  bool // add a NIC-attached memory pool node
	FarMemNodes int  // number of far-memory nodes, default 1
	CoresPerCPU int  // default 32
	ScaleCap    func(memsim.Spec) memsim.Spec
}

// DefaultSingleNode returns the fully populated configuration used by the
// paper-artifact benches.
func DefaultSingleNode() SingleNodeConfig {
	return SingleNodeConfig{
		Sockets: 2, WithGPU: true, WithTPU: true, WithFPGA: true,
		WithFarMem: true, FarMemNodes: 2, CoresPerCPU: 32,
	}
}

// BuildSingleNode constructs the reference testbed.
func BuildSingleNode(cfg SingleNodeConfig) (*Topology, error) {
	if cfg.Sockets <= 0 {
		cfg.Sockets = 2
	}
	if cfg.CoresPerCPU <= 0 {
		cfg.CoresPerCPU = 32
	}
	if cfg.FarMemNodes <= 0 {
		cfg.FarMemNodes = 1
	}
	t := New()

	addMem := func(id string, spec memsim.Spec) (*memsim.Device, error) {
		if cfg.ScaleCap != nil {
			spec = cfg.ScaleCap(spec)
		}
		d, err := memsim.NewDevice(id, spec)
		if err != nil {
			return nil, err
		}
		return d, t.AddMemory(d)
	}

	// CPU sockets with per-socket cache, DRAM, and (socket 0) HBM + PMem.
	for s := 0; s < cfg.Sockets; s++ {
		cpu := &ComputeDevice{
			ID:   fmt.Sprintf("%s/cpu%d", onNodeName, s),
			Kind: CPU, Node: onNodeName,
			Gops: 200, Cores: cfg.CoresPerCPU,
		}
		if err := t.AddCompute(cpu); err != nil {
			return nil, err
		}
		cache, err := addMem(fmt.Sprintf("%s/cache%d", onNodeName, s), memsim.CacheSpec())
		if err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: cpu.ID, B: cache.ID, Kind: LinkOnChip, Latency: time.Nanosecond, Bandwidth: 2000e9, Coherent: true}); err != nil {
			return nil, err
		}
		dram, err := addMem(fmt.Sprintf("%s/dram%d", onNodeName, s), memsim.DRAMSpec())
		if err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: cpu.ID, B: dram.ID, Kind: LinkMemBus, Latency: memBusLat, Bandwidth: memBusBW, Coherent: true}); err != nil {
			return nil, err
		}
		// Cross-socket UPI ring: cpu_s ↔ cpu_{s-1}.
		if s > 0 {
			prev := fmt.Sprintf("%s/cpu%d", onNodeName, s-1)
			if err := t.Connect(Link{A: prev, B: cpu.ID, Kind: LinkUPI, Latency: upiLat, Bandwidth: upiBW, Coherent: true}); err != nil {
				return nil, err
			}
		}
	}
	cpu0 := fmt.Sprintf("%s/cpu0", onNodeName)

	hbm, err := addMem(onNodeName+"/hbm0", memsim.HBMSpec())
	if err != nil {
		return nil, err
	}
	if err := t.Connect(Link{A: cpu0, B: hbm.ID, Kind: LinkOnChip, Latency: 5 * time.Nanosecond, Bandwidth: 800e9, Coherent: true}); err != nil {
		return nil, err
	}
	pmem, err := addMem(onNodeName+"/pmem0", memsim.PMemSpec())
	if err != nil {
		return nil, err
	}
	if err := t.Connect(Link{A: cpu0, B: pmem.ID, Kind: LinkMemBus, Latency: memBusLat, Bandwidth: 40e9, Coherent: true}); err != nil {
		return nil, err
	}

	// PCIe/CXL root complex hangs off socket 0.
	pcieSwitch := onNodeName + "/pcie"
	if err := t.Connect(Link{A: cpu0, B: pcieSwitch, Kind: LinkPCIe, Latency: pcieLat / 2, Bandwidth: pcieBW, Coherent: true}); err != nil {
		return nil, err
	}

	cxl, err := addMem(onNodeName+"/cxl0", memsim.CXLDRAMSpec())
	if err != nil {
		return nil, err
	}
	if err := t.Connect(Link{A: cpu0, B: cxl.ID, Kind: LinkPCIe, Latency: cxlLat, Bandwidth: cxlBW, Coherent: true}); err != nil {
		return nil, err
	}

	ssd, err := addMem(onNodeName+"/ssd0", memsim.SSDSpec())
	if err != nil {
		return nil, err
	}
	if err := t.Connect(Link{A: pcieSwitch, B: ssd.ID, Kind: LinkPCIe, Latency: pcieLat / 2, Bandwidth: 8e9, Coherent: false}); err != nil {
		return nil, err
	}
	hdd, err := addMem(onNodeName+"/hdd0", memsim.HDDSpec())
	if err != nil {
		return nil, err
	}
	if err := t.Connect(Link{A: cpu0, B: hdd.ID, Kind: LinkSATA, Latency: sataLat, Bandwidth: sataBW, Coherent: false}); err != nil {
		return nil, err
	}

	if cfg.WithGPU {
		gpu := &ComputeDevice{ID: onNodeName + "/gpu0", Kind: GPU, Node: onNodeName, Gops: 2000, Cores: 64}
		if err := t.AddCompute(gpu); err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: gpu.ID, B: pcieSwitch, Kind: LinkPCIe, Latency: pcieLat / 2, Bandwidth: pcieBW, Coherent: true}); err != nil {
			return nil, err
		}
		gddr, err := addMem(onNodeName+"/gddr0", memsim.GDDRSpec())
		if err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: gpu.ID, B: gddr.ID, Kind: LinkMemBus, Latency: 8 * time.Nanosecond, Bandwidth: 900e9, Coherent: false}); err != nil {
			return nil, err
		}
	}
	if cfg.WithTPU {
		tpu := &ComputeDevice{ID: onNodeName + "/tpu0", Kind: TPU, Node: onNodeName, Gops: 4000, Cores: 16}
		if err := t.AddCompute(tpu); err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: tpu.ID, B: pcieSwitch, Kind: LinkPCIe, Latency: pcieLat / 2, Bandwidth: pcieBW, Coherent: true}); err != nil {
			return nil, err
		}
		// TPUs ship with on-package HBM; without it no sub-200ns memory is
		// reachable from the accelerator (Table 1 from the TPU's view).
		spec := memsim.HBMSpec()
		spec.Name = "TPU-HBM"
		spec.Attach = memsim.AttachPCIe
		spec.Coherent = false
		thbm, err := addMem(onNodeName+"/tpuhbm0", spec)
		if err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: tpu.ID, B: thbm.ID, Kind: LinkMemBus, Latency: 8 * time.Nanosecond, Bandwidth: 600e9, Coherent: false}); err != nil {
			return nil, err
		}
	}
	if cfg.WithFPGA {
		fpga := &ComputeDevice{ID: onNodeName + "/fpga0", Kind: FPGA, Node: onNodeName, Gops: 600, Cores: 8}
		if err := t.AddCompute(fpga); err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: fpga.ID, B: pcieSwitch, Kind: LinkPCIe, Latency: pcieLat / 2, Bandwidth: pcieBW, Coherent: true}); err != nil {
			return nil, err
		}
		// On-chip BRAM: small, very fast, FPGA-local.
		spec := memsim.Spec{
			Name: "BRAM", Class: memsim.HBM,
			Latency: 10 * time.Nanosecond, Bandwidth: 200e9,
			Granularity: 64, Attach: memsim.AttachPCIe,
			Coherent: false, Sync: true, Persistent: false,
			Capacity: 256 * memsim.MiB,
		}
		bram, err := addMem(onNodeName+"/bram0", spec)
		if err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: fpga.ID, B: bram.ID, Kind: LinkOnChip, Latency: 2 * time.Nanosecond, Bandwidth: 400e9, Coherent: false}); err != nil {
			return nil, err
		}
	}

	if cfg.WithFarMem {
		// NIC per node, fabric switch, memory nodes with pooled DRAM.
		nic := onNodeName + "/nic"
		if err := t.Connect(Link{A: cpu0, B: nic, Kind: LinkPCIe, Latency: pcieLat / 2, Bandwidth: nicBW, Coherent: false}); err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: nic, B: "fabric", Kind: LinkNIC, Latency: nicLat / 2, Bandwidth: nicBW, Coherent: false}); err != nil {
			return nil, err
		}
		for n := 0; n < cfg.FarMemNodes; n++ {
			far, err := addMem(fmt.Sprintf("memnode%d/far0", n), memsim.DisaggMemSpec())
			if err != nil {
				return nil, err
			}
			if err := t.Connect(Link{A: "fabric", B: far.ID, Kind: LinkNIC, Latency: nicLat / 2, Bandwidth: nicBW, Coherent: false}); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// MustSingleNode builds the default testbed and panics on error; intended
// for tests and benches where the configuration is static and known-good.
func MustSingleNode() *Topology {
	t, err := BuildSingleNode(DefaultSingleNode())
	if err != nil {
		panic(err)
	}
	return t
}

// BuildRack wires rackSize copies of the single-node testbed to a shared
// fabric with memNodes pooled far-memory nodes — the paper's Figure 1b
// memory pool. Node i's devices are namespaced "rack/nodeI/...".
func BuildRack(rackSize, memNodes int) (*Topology, error) {
	if rackSize <= 0 || memNodes < 0 {
		return nil, fmt.Errorf("topology: invalid rack shape %d/%d", rackSize, memNodes)
	}
	t := New()
	for n := 0; n < rackSize; n++ {
		node := fmt.Sprintf("rack/node%d", n)
		cpu := &ComputeDevice{ID: node + "/cpu0", Kind: CPU, Node: node, Gops: 200, Cores: 32}
		if err := t.AddCompute(cpu); err != nil {
			return nil, err
		}
		dram, err := memsim.NewDevice(node+"/dram0", memsim.DRAMSpec())
		if err != nil {
			return nil, err
		}
		if err := t.AddMemory(dram); err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: cpu.ID, B: dram.ID, Kind: LinkMemBus, Latency: memBusLat, Bandwidth: memBusBW, Coherent: true}); err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: cpu.ID, B: "rack/fabric", Kind: LinkNIC, Latency: nicLat, Bandwidth: nicBW, Coherent: false}); err != nil {
			return nil, err
		}
	}
	for m := 0; m < memNodes; m++ {
		far, err := memsim.NewDevice(fmt.Sprintf("rack/memnode%d/far0", m), memsim.DisaggMemSpec())
		if err != nil {
			return nil, err
		}
		if err := t.AddMemory(far); err != nil {
			return nil, err
		}
		if err := t.Connect(Link{A: "rack/fabric", B: far.ID, Kind: LinkNIC, Latency: nicLat / 2, Bandwidth: nicBW, Coherent: false}); err != nil {
			return nil, err
		}
	}
	return t, nil
}
