// Package memsim simulates the physical memory devices of a fully
// disaggregated system: the rows of Table 1 in the paper (cache, HBM, DRAM,
// PMem, CXL-DRAM, NIC-attached disaggregated memory, SSD, HDD) plus GDDR for
// accelerators.
//
// Real hardware of these kinds is not available here, so each device is a
// discrete-cost model: an access of s bytes issued at virtual time t is
// serviced after the device latency plus s divided by the device bandwidth,
// with a single service queue providing bandwidth contention. Accesses still
// touch real host memory (the backing arena lives in internal/region), so the
// data path is genuinely exercised; only *time* is simulated. All state is
// deterministic — no wall clocks, no randomness.
package memsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Class enumerates the device kinds of Table 1 (plus GDDR, which the paper's
// Figure 3 uses as the GPU-local tier).
type Class uint8

const (
	Cache Class = iota
	HBM
	DRAM
	PMem
	CXLDRAM
	DisaggMem
	SSD
	HDD
	GDDR
)

// String returns the Table 1 row name.
func (c Class) String() string {
	switch c {
	case Cache:
		return "Cache"
	case HBM:
		return "HBM"
	case DRAM:
		return "DRAM"
	case PMem:
		return "PMem"
	case CXLDRAM:
		return "CXL-DRAM"
	case DisaggMem:
		return "Disagg. Mem."
	case SSD:
		return "SSD"
	case HDD:
		return "HDD"
	case GDDR:
		return "GDDR"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Attach describes how the device is physically attached (Table 1's
// "Attached" column); the attachment determines which interconnect paths
// exist in the topology.
type Attach uint8

const (
	AttachCPU  Attach = iota // on the memory bus / on-package
	AttachPCIe               // PCIe or CXL
	AttachNIC                // reached over the network fabric
	AttachSATA
)

// String returns the attachment name as printed in Table 1.
func (a Attach) String() string {
	switch a {
	case AttachCPU:
		return "CPU"
	case AttachPCIe:
		return "PCIe"
	case AttachNIC:
		return "NIC"
	case AttachSATA:
		return "SATA"
	default:
		return fmt.Sprintf("Attach(%d)", uint8(a))
	}
}

// Spec is the static property sheet of a device model — the simulator's
// rendering of one Table 1 row.
type Spec struct {
	Name        string
	Class       Class
	Latency     time.Duration // device-internal access latency (excludes interconnect)
	Bandwidth   float64       // bytes/second sustained
	Granularity int           // bytes per access unit
	Attach      Attach
	Coherent    bool // can participate in hardware cache coherence
	Sync        bool // synchronous loads/stores are sensible
	Persistent  bool
	Capacity    int64 // bytes
	// HardwareManaged marks devices (caches) that the placement layer must
	// never allocate regions on: they speed accesses up transparently but
	// are not a software-visible memory pool.
	HardwareManaged bool
}

// Validate reports spec errors early instead of producing nonsense costs.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("memsim: spec missing name")
	case s.Latency <= 0:
		return fmt.Errorf("memsim: %s: latency must be positive", s.Name)
	case s.Bandwidth <= 0:
		return fmt.Errorf("memsim: %s: bandwidth must be positive", s.Name)
	case s.Granularity <= 0:
		return fmt.Errorf("memsim: %s: granularity must be positive", s.Name)
	case s.Capacity <= 0:
		return fmt.Errorf("memsim: %s: capacity must be positive", s.Name)
	default:
		return nil
	}
}

// ByteAddressable reports whether the device supports byte-granular
// loads/stores (granularity ≤ a cache line and not a block device).
func (s Spec) ByteAddressable() bool { return s.Granularity <= 512 }

// AccessKind distinguishes reads from writes: persistent and block devices
// commonly have asymmetric costs.
type AccessKind uint8

const (
	Read AccessKind = iota
	Write
)

// Pattern distinguishes sequential streaming from random accesses; random
// accesses pay the device latency per granule instead of once per request.
type Pattern uint8

const (
	Sequential Pattern = iota
	Random
)

// Device is a simulated memory device instance: a spec plus mutable
// service-queue state for bandwidth contention and an allocation meter.
type Device struct {
	Spec
	ID string // unique within a topology, e.g. "node0/dram0"

	mu        sync.Mutex
	busyUntil time.Duration // virtual time the service queue drains
	allocated int64         // bytes handed out by the allocator layer

	// The access counters are atomics, not fields under mu: every epoch and
	// every retiring task adds to them, and must not serialize on one device
	// lock just to count.
	reads     atomic.Uint64
	writes    atomic.Uint64
	bytesRead atomic.Uint64
	bytesWr   atomic.Uint64
}

// NewDevice builds a device from a validated spec.
func NewDevice(id string, spec Spec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if id == "" {
		return nil, fmt.Errorf("memsim: device id must be non-empty")
	}
	return &Device{Spec: spec, ID: id}, nil
}

// roundUp rounds n up to the device granularity: a 1-byte access to a block
// device still moves a full block.
func (d *Device) roundUp(n int64) int64 {
	g := int64(d.Granularity)
	if rem := n % g; rem != 0 {
		n += g - rem
	}
	return n
}

// ServiceTime returns how long the device itself needs to move size bytes,
// excluding queueing and interconnect: latency (once for sequential, per
// granule for random) plus transfer time at device bandwidth. Writes to
// persistent media pay a 1.25× penalty (flush overhead), matching the
// read/write asymmetry of PMem and flash.
func (d *Device) ServiceTime(size int64, kind AccessKind, pat Pattern) time.Duration {
	if size <= 0 {
		return 0
	}
	size = d.roundUp(size)
	lat := d.Latency
	if pat == Random {
		granules := size / int64(d.Granularity)
		lat = time.Duration(int64(d.Latency) * granules)
	}
	xfer := time.Duration(float64(size) / d.Bandwidth * float64(time.Second))
	if kind == Write && d.Persistent {
		xfer = xfer * 5 / 4
	}
	return lat + xfer
}

// Access services a request issued at virtual time now and returns the
// virtual completion time. A single FIFO service queue models bandwidth
// contention: concurrent requests serialize their transfer phases.
func (d *Device) Access(now time.Duration, size int64, kind AccessKind, pat Pattern) time.Duration {
	svc := d.ServiceTime(size, kind, pat)
	d.mu.Lock()
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	done := start + svc
	d.busyUntil = done
	d.mu.Unlock()
	d.Count(size, kind)
	return done
}

// Queued is Access against a caller-held service-queue state instead of the
// device-global one: busyUntil is the queue drain time the caller tracks (one
// per virtual-time view), and the completion time returned is also the
// queue's new drain time. Only *queue time* is view-local, which is what lets
// concurrent views share a device without serializing against each other's
// virtual backlog. Queued touches no device state at all: the caller counts
// the access, at once with Count or in a Tally it hands over later.
func (d *Device) Queued(busyUntil, now time.Duration, size int64, kind AccessKind, pat Pattern) time.Duration {
	if busyUntil > now {
		now = busyUntil
	}
	return now + d.ServiceTime(size, kind, pat)
}

// Count bumps the access counters for one access: a Tally of one.
func (d *Device) Count(size int64, kind AccessKind) {
	var t Tally
	t.Count(size, kind)
	d.AddTally(t)
}

// Tally is a batch of access counts kept away from the device: a task's
// clock view counts its accesses in one per device, in plain integers no
// other goroutine reads, and hands each over with AddTally when the task
// retires — one atomic add per touched counter per task rather than two per
// access on a cache line every task of every job shares.
type Tally struct {
	Reads, Writes           uint64
	BytesRead, BytesWritten uint64
}

// Count tallies one access.
func (t *Tally) Count(size int64, kind AccessKind) {
	switch kind {
	case Read:
		t.Reads++
		t.BytesRead += uint64(size)
	case Write:
		t.Writes++
		t.BytesWritten += uint64(size)
	}
}

// AddTally adds a batch of access counts to the device counters.
func (d *Device) AddTally(t Tally) {
	if t.Reads != 0 {
		d.reads.Add(t.Reads)
		d.bytesRead.Add(t.BytesRead)
	}
	if t.Writes != 0 {
		d.writes.Add(t.Writes)
		d.bytesWr.Add(t.BytesWritten)
	}
}

// Stats is a snapshot of device counters for reports and tests.
type Stats struct {
	Reads, Writes           uint64
	BytesRead, BytesWritten uint64
	Allocated               int64
	BusyUntil               time.Duration
}

// Stats returns a snapshot. Allocated and BusyUntil are read together under
// the device lock; each access counter is exact on its own, and all of them
// are mutually consistent whenever no access is in flight.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Reads: d.reads.Load(), Writes: d.writes.Load(),
		BytesRead: d.bytesRead.Load(), BytesWritten: d.bytesWr.Load(),
		Allocated: d.allocated, BusyUntil: d.busyUntil,
	}
}

// Reserve accounts an allocation against device capacity. The region layer
// calls this under its allocator; Reserve fails rather than oversubscribes.
func (d *Device) Reserve(n int64) error {
	if n <= 0 {
		return fmt.Errorf("memsim: %s: reserve of %d bytes", d.ID, n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.allocated+n > d.Capacity {
		return fmt.Errorf("memsim: %s: capacity exhausted (%d allocated, %d capacity, %d requested)",
			d.ID, d.allocated, d.Capacity, n)
	}
	d.allocated += n
	return nil
}

// Release returns capacity. Releasing more than allocated is a bug in the
// caller and panics loudly rather than corrupting accounting.
func (d *Device) Release(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n > d.allocated {
		panic(fmt.Sprintf("memsim: %s: release %d with %d allocated", d.ID, n, d.allocated))
	}
	d.allocated -= n
}

// Free returns the unallocated capacity in bytes.
func (d *Device) Free() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Capacity - d.allocated
}

// Utilization returns allocated/capacity in [0,1].
func (d *Device) Utilization() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return float64(d.allocated) / float64(d.Capacity)
}

// ResetQueue clears the service queue (between benchmark iterations).
func (d *Device) ResetQueue() {
	d.mu.Lock()
	d.busyUntil = 0
	d.mu.Unlock()
}
