package memsim

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func mustDevice(t *testing.T, spec Spec) *Device {
	t.Helper()
	d, err := NewDevice("test/"+spec.Name, spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCatalogSpecsValid(t *testing.T) {
	for _, s := range []Spec{
		CacheSpec(), HBMSpec(), DRAMSpec(), PMemSpec(),
		CXLDRAMSpec(), DisaggMemSpec(), SSDSpec(), HDDSpec(), GDDRSpec(),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestTable1Ordering(t *testing.T) {
	// The table's ordinal rankings must hold in the concrete numbers:
	// bandwidth Cache ≥ HBM > DRAM > PMem ≥ CXL > Disagg > SSD > HDD,
	// latency Cache < HBM ≤ DRAM < CXL < PMem < Disagg < SSD < HDD.
	c, h, d, p := CacheSpec(), HBMSpec(), DRAMSpec(), PMemSpec()
	x, f, s, hd := CXLDRAMSpec(), DisaggMemSpec(), SSDSpec(), HDDSpec()
	bw := []Spec{c, h, d, x, f, p, s, hd}
	for i := 1; i < len(bw); i++ {
		if bw[i].Bandwidth > bw[i-1].Bandwidth {
			t.Errorf("bandwidth ordering violated: %s (%.0f) > %s (%.0f)",
				bw[i].Name, bw[i].Bandwidth, bw[i-1].Name, bw[i-1].Bandwidth)
		}
	}
	lat := []Spec{c, d, h, x, p, f, s, hd}
	for i := 1; i < len(lat); i++ {
		if lat[i].Latency < lat[i-1].Latency {
			t.Errorf("latency ordering violated: %s (%v) < %s (%v)",
				lat[i].Name, lat[i].Latency, lat[i-1].Name, lat[i-1].Latency)
		}
	}
}

func TestTable1Properties(t *testing.T) {
	// Sync and persistence flags must match the table's ✓/✗ columns.
	for _, tc := range []struct {
		spec        Spec
		sync, pers  bool
		granularity int
		attach      Attach
	}{
		{CacheSpec(), true, false, 1, AttachCPU},
		{HBMSpec(), true, false, 64, AttachCPU},
		{DRAMSpec(), true, false, 64, AttachCPU},
		{PMemSpec(), true, true, 256, AttachCPU},
		{CXLDRAMSpec(), true, false, 64, AttachPCIe},
		{DisaggMemSpec(), false, false, 256, AttachNIC},
		{SSDSpec(), false, true, 4096, AttachPCIe},
		{HDDSpec(), false, true, 4096, AttachSATA},
	} {
		s := tc.spec
		if s.Sync != tc.sync || s.Persistent != tc.pers || s.Granularity != tc.granularity || s.Attach != tc.attach {
			t.Errorf("%s: got (sync=%t pers=%t gran=%d attach=%s)", s.Name, s.Sync, s.Persistent, s.Granularity, s.Attach)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := DRAMSpec()
	for _, mod := range []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Latency = 0 },
		func(s *Spec) { s.Bandwidth = 0 },
		func(s *Spec) { s.Granularity = 0 },
		func(s *Spec) { s.Capacity = 0 },
	} {
		s := good
		mod(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v should fail validation", s)
		}
	}
	if _, err := NewDevice("", good); err == nil {
		t.Error("empty device id must be rejected")
	}
}

func TestServiceTimeSequential(t *testing.T) {
	d := mustDevice(t, DRAMSpec()) // 90ns, 100 GB/s
	got := d.ServiceTime(100*MiB, Read, Sequential)
	// 100 MiB / 100e9 B/s ≈ 1.048ms; latency is noise at this size.
	want := time.Duration(float64(100*MiB) / 100e9 * float64(time.Second))
	if diff := got - want; diff < 0 || diff > time.Microsecond {
		t.Errorf("ServiceTime = %v, want ≈ %v", got, want)
	}
}

func TestServiceTimeRandomPaysLatencyPerGranule(t *testing.T) {
	d := mustDevice(t, DRAMSpec())
	seq := d.ServiceTime(64*KiB, Read, Sequential)
	rnd := d.ServiceTime(64*KiB, Read, Random)
	// 1024 granules × 90ns ≫ one 90ns latency.
	if rnd < 100*seq {
		t.Errorf("random access (%v) should dwarf sequential (%v) at this size", rnd, seq)
	}
}

func TestServiceTimeGranularityRounding(t *testing.T) {
	d := mustDevice(t, SSDSpec())
	if one, blk := d.ServiceTime(1, Read, Sequential), d.ServiceTime(4096, Read, Sequential); one != blk {
		t.Errorf("1-byte SSD access (%v) must cost a full block (%v)", one, blk)
	}
}

func TestPersistentWritePenalty(t *testing.T) {
	d := mustDevice(t, PMemSpec())
	r := d.ServiceTime(1*MiB, Read, Sequential)
	w := d.ServiceTime(1*MiB, Write, Sequential)
	if w <= r {
		t.Errorf("persistent write (%v) must exceed read (%v)", w, r)
	}
	v := mustDevice(t, DRAMSpec())
	if v.ServiceTime(1*MiB, Write, Sequential) != v.ServiceTime(1*MiB, Read, Sequential) {
		t.Error("volatile devices have symmetric read/write cost")
	}
}

// queue is one caller-held service queue over a device: what a virtual
// clock keeps per device, and the only place queue time lives.
type queue struct {
	d    *Device
	busy time.Duration
}

// access queues one access and counts it at once.
func (q *queue) access(now time.Duration, size int64, kind AccessKind, pat Pattern) time.Duration {
	q.busy = q.d.Queued(q.busy, now, size, kind, pat)
	q.d.Count(size, kind)
	return q.busy
}

func TestAccessQueueContention(t *testing.T) {
	d := mustDevice(t, DRAMSpec())
	q := &queue{d: d}
	// Two simultaneous 1 MiB reads: the second completes after the first's
	// transfer drains the queue.
	t1 := q.access(0, 1*MiB, Read, Sequential)
	t2 := q.access(0, 1*MiB, Read, Sequential)
	if t2 <= t1 {
		t.Errorf("contended access must finish later: t1=%v t2=%v", t1, t2)
	}
	svc := d.ServiceTime(1*MiB, Read, Sequential)
	if want := t1 + svc; t2 != want {
		t.Errorf("t2 = %v, want t1+svc = %v", t2, want)
	}
}

func TestAccessAfterIdlePaysNoQueueing(t *testing.T) {
	d := mustDevice(t, DRAMSpec())
	q := &queue{d: d}
	done := q.access(0, 1*MiB, Read, Sequential)
	// Issue the next access long after the queue drained.
	later := done + time.Millisecond
	d2 := q.access(later, 1*MiB, Read, Sequential)
	if d2 != later+d.ServiceTime(1*MiB, Read, Sequential) {
		t.Errorf("idle device must not add queueing delay")
	}
}

func TestReserveRelease(t *testing.T) {
	d := mustDevice(t, HBMSpec()) // 16 GiB
	if err := d.Reserve(10 * GiB); err != nil {
		t.Fatal(err)
	}
	if err := d.Reserve(10 * GiB); err == nil {
		t.Fatal("oversubscription must fail")
	}
	if got := d.Free(); got != 6*GiB {
		t.Errorf("Free = %d, want 6 GiB", got)
	}
	if u := d.Utilization(); u < 0.62 || u > 0.63 {
		t.Errorf("Utilization = %f, want ≈0.625", u)
	}
	d.Release(10 * GiB)
	if got := d.Free(); got != 16*GiB {
		t.Errorf("Free after release = %d, want full capacity", got)
	}
}

// TestConcurrentReserveNeverOversubscribes races reservers against one
// device: exactly as many succeed as the capacity holds, and releasing them
// all returns it to empty.
func TestConcurrentReserveNeverOversubscribes(t *testing.T) {
	d := mustDevice(t, HBMSpec()) // 16 GiB
	const goroutines, each, chunk = 4, 64, GiB / 8
	var granted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if d.Reserve(chunk) == nil {
					granted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := granted.Load(), d.Capacity/chunk; got != want {
		t.Fatalf("%d reservations of %d granted, want %d", got, chunk, want)
	}
	if d.Free() != 0 {
		t.Fatalf("Free = %d after filling the device", d.Free())
	}
	for i := int64(0); i < granted.Load(); i++ {
		d.Release(chunk)
	}
	if s := d.Stats(); s.Allocated != 0 {
		t.Fatalf("Allocated = %d after releasing every reservation", s.Allocated)
	}
}

func TestReleaseTooMuchPanics(t *testing.T) {
	d := mustDevice(t, HBMSpec())
	defer func() {
		if recover() == nil {
			t.Error("releasing unallocated capacity must panic")
		}
	}()
	d.Release(1)
}

func TestReserveRejectsNonPositive(t *testing.T) {
	d := mustDevice(t, HBMSpec())
	if err := d.Reserve(0); err == nil {
		t.Error("Reserve(0) must fail")
	}
	if err := d.Reserve(-5); err == nil {
		t.Error("Reserve(-5) must fail")
	}
}

func TestStatsCounting(t *testing.T) {
	d := mustDevice(t, DRAMSpec())
	q := &queue{d: d}
	q.access(0, 128, Read, Sequential)
	q.access(0, 256, Write, Sequential)
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Errorf("counts = %d/%d, want 1/1", s.Reads, s.Writes)
	}
	if s.BytesRead != 128 || s.BytesWritten != 256 {
		t.Errorf("bytes = %d/%d, want 128/256", s.BytesRead, s.BytesWritten)
	}
	// Queued itself counts nothing: counting is the caller's.
	d.Queued(0, 0, 64, Read, Sequential)
	if got := d.Stats(); got.Reads != 1 {
		t.Errorf("Queued counted an access: reads = %d, want 1", got.Reads)
	}
}

// Property: completion times are monotone in request size and never precede
// issue time plus the device latency.
func TestAccessMonotoneProperty(t *testing.T) {
	f := func(a, b uint32, at uint32) bool {
		d, err := NewDevice("q", DRAMSpec())
		if err != nil {
			return false
		}
		sa, sb := int64(a%10_000_000)+1, int64(b%10_000_000)+1
		if sa > sb {
			sa, sb = sb, sa
		}
		now := time.Duration(at % 1_000_000)
		ta := d.ServiceTime(sa, Read, Sequential)
		tb := d.ServiceTime(sb, Read, Sequential)
		if ta > tb {
			return false
		}
		done := d.Queued(0, now, sa, Read, Sequential)
		return done >= now+d.Latency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: the service queue never travels backwards — a sequence of
// accesses yields non-decreasing completion times when issued at
// non-decreasing timestamps.
func TestQueueMonotoneProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		d, err := NewDevice("q", CXLDRAMSpec())
		if err != nil {
			return false
		}
		q := &queue{d: d}
		var prev time.Duration
		now := time.Duration(0)
		for i, s := range sizes {
			done := q.access(now, int64(s)+1, Read, Sequential)
			if done < prev {
				return false
			}
			prev = done
			if i%2 == 0 {
				now += time.Microsecond
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestByteAddressable(t *testing.T) {
	if !DRAMSpec().ByteAddressable() || !PMemSpec().ByteAddressable() {
		t.Error("DRAM and PMem are byte-addressable")
	}
	if SSDSpec().ByteAddressable() || HDDSpec().ByteAddressable() {
		t.Error("block devices are not byte-addressable")
	}
}

func TestClassAndAttachStrings(t *testing.T) {
	if Cache.String() != "Cache" || CXLDRAM.String() != "CXL-DRAM" || DisaggMem.String() != "Disagg. Mem." {
		t.Error("class names must match Table 1 rows")
	}
	if AttachCPU.String() != "CPU" || AttachNIC.String() != "NIC" || AttachSATA.String() != "SATA" {
		t.Error("attach names must match Table 1")
	}
}
