package memsim

import "time"

// The catalogue renders Table 1 of the paper into concrete numbers. Latency
// and bandwidth are device-internal figures (the interconnect path adds its
// own cost in internal/topology); values follow the table's ordinal ranking
// (++/+/◦/−/−−) using publicly reported magnitudes for each technology.

const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
	TiB = int64(1) << 40
)

// CacheSpec models an on-CPU last-level cache slice: Table 1 row "Cache"
// (Bw ++, Lat ++, 1 B granularity, CPU-attached, sync, volatile).
func CacheSpec() Spec {
	return Spec{
		Name: "Cache", Class: Cache,
		Latency: 4 * time.Nanosecond, Bandwidth: 1000e9,
		Granularity: 1, Attach: AttachCPU,
		Coherent: true, Sync: true, Persistent: false,
		Capacity: 64 * MiB, HardwareManaged: true,
	}
}

// HBMSpec models on-package high-bandwidth memory (Bw ++, Lat +).
func HBMSpec() Spec {
	return Spec{
		Name: "HBM", Class: HBM,
		Latency: 110 * time.Nanosecond, Bandwidth: 400e9,
		Granularity: 64, Attach: AttachCPU,
		Coherent: true, Sync: true, Persistent: false,
		Capacity: 16 * GiB,
	}
}

// DRAMSpec models a socket's local DDR DRAM (Bw +, Lat +).
func DRAMSpec() Spec {
	return Spec{
		Name: "DRAM", Class: DRAM,
		Latency: 90 * time.Nanosecond, Bandwidth: 100e9,
		Granularity: 64, Attach: AttachCPU,
		Coherent: true, Sync: true, Persistent: false,
		Capacity: 256 * GiB,
	}
}

// PMemSpec models Optane-style persistent memory (Bw ◦, Lat ◦, 256 B
// granularity, persistent).
func PMemSpec() Spec {
	return Spec{
		Name: "PMem", Class: PMem,
		Latency: 350 * time.Nanosecond, Bandwidth: 8e9,
		Granularity: 256, Attach: AttachCPU,
		Coherent: true, Sync: true, Persistent: true,
		Capacity: 1 * TiB,
	}
}

// CXLDRAMSpec models a CXL.mem DRAM expansion card: DRAM media behind a
// PCIe5/CXL link, so medium latency; coherent via CXL; sync or async per
// Table 1 ("✓/✗"). The table row's optional persistence is not modeled.
func CXLDRAMSpec() Spec {
	return Spec{
		Name: "CXL-DRAM", Class: CXLDRAM,
		Latency: 170 * time.Nanosecond, Bandwidth: 30e9,
		Granularity: 64, Attach: AttachPCIe,
		Coherent: true, Sync: true, Persistent: false,
		Capacity: 512 * GiB,
	}
}

// DisaggMemSpec models NIC-attached far memory on a memory node (Bw ◦,
// Lat −, async only, granularity "?" in the table — we use 256 B, a common
// RDMA transfer unit). Persistence is optional per the table; the volatile
// variant is the default, fault tolerance (internal/fault) adds durability.
func DisaggMemSpec() Spec {
	return Spec{
		Name: "Disagg. Mem.", Class: DisaggMem,
		Latency: 1500 * time.Nanosecond, Bandwidth: 12e9,
		Granularity: 256, Attach: AttachNIC,
		Coherent: false, Sync: false, Persistent: false,
		Capacity: 4 * TiB,
	}
}

// SSDSpec models NVMe flash (Bw −, Lat −, 4 KiB blocks, persistent).
func SSDSpec() Spec {
	return Spec{
		Name: "SSD", Class: SSD,
		Latency: 60 * time.Microsecond, Bandwidth: 3e9,
		Granularity: 4096, Attach: AttachPCIe,
		Coherent: false, Sync: false, Persistent: true,
		Capacity: 8 * TiB,
	}
}

// HDDSpec models spinning disks (Bw −−, Lat −−, persistent).
func HDDSpec() Spec {
	return Spec{
		Name: "HDD", Class: HDD,
		Latency: 6 * time.Millisecond, Bandwidth: 200e6,
		Granularity: 4096, Attach: AttachSATA,
		Coherent: false, Sync: false, Persistent: true,
		Capacity: 32 * TiB,
	}
}

// GDDRSpec models GPU-local graphics memory: very fast from the GPU, only
// reachable over PCIe/CXL from the host (Figure 3's point: the best device
// depends on the compute device).
func GDDRSpec() Spec {
	return Spec{
		Name: "GDDR", Class: GDDR,
		Latency: 120 * time.Nanosecond, Bandwidth: 500e9,
		Granularity: 64, Attach: AttachPCIe,
		Coherent: false, Sync: true, Persistent: false,
		Capacity: 24 * GiB,
	}
}
