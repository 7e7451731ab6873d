package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// Job outcomes.
const (
	pending uint8 = iota
	completed
	failed  // admitted, then the ticket delivered an error
	refused // SubmitAsync returned an error (SLO refusal)
)

// rec is one timed submission. Times are ns since its phase began. It holds
// no pointers, so the collector never scans the records.
type rec struct {
	due      int64 // when the job was due to be sent
	sent     int64 // when the submission call began; later than due if the generator ran late
	ret      int64 // when the submission call returned
	done     int64 // when its ticket was delivered
	makespan int64 // virtual ns
	state    uint8
}

const recChunk = 8192

// tally is what a waiter accumulates from the reports it sees, so the timed
// phase stores nothing per job beyond rec.
type tally struct {
	tasks, batchSum            int64
	sloGuaranteed, sloMet      int64
	retried, skipped, attempts int64
}

func (t *tally) add(o tally) {
	t.tasks += o.tasks
	t.batchSum += o.batchSum
	t.sloGuaranteed += o.sloGuaranteed
	t.sloMet += o.sloMet
	t.retried += o.retried
	t.skipped += o.skipped
	t.attempts += o.attempts
}

func (t *tally) note(rep *core.Report) {
	t.tasks += int64(len(rep.Tasks))
	t.batchSum += int64(rep.BatchSize)
	if rep.SLODeadline > 0 && !rep.BestEffort {
		t.sloGuaranteed++
		if rep.SLOWait+rep.Makespan <= rep.SLODeadline {
			t.sloMet++
		}
	}
	if rep.Attempts > 1 {
		t.retried++
		t.attempts += int64(rep.Attempts - 1)
		t.skipped += int64(rep.SkippedTasks)
	}
}

// phaseData is what one phase (ramp-up or run) leaves behind.
type phaseData struct {
	chunks [][]rec
	n      int
	wall   time.Duration // phase start to the last delivery
	tally  tally
	// kept holds the outcomes the verification compares: the first `keep`
	// submissions, then the same pool jobs one pool cycle later.
	keep    int
	kept    []outcome
	firstFn string // first failure, for the operator
	// Stream only.
	streamSubmit time.Duration
	watermark    time.Duration
}

type outcome struct {
	rep *core.Report
	err error
}

func (p *phaseData) rec(i int) *rec { return &p.chunks[i/recChunk][i%recChunk] }

func (p *phaseData) grow() *rec {
	if p.n%recChunk == 0 {
		p.chunks = append(p.chunks, make([]rec, recChunk))
	}
	p.n++
	return p.rec(p.n - 1)
}

// keepSlot maps a submission index to its slot in kept, or -1.
func (p *phaseData) keepSlot(i int) int {
	switch {
	case i < p.keep:
		return i
	case i >= poolJobs && i < poolJobs+p.keep:
		return p.keep + i - poolJobs
	}
	return -1
}

// driverBytes is the heap the records themselves hold, which retained
// memory must not charge to the program.
func (p *phaseData) driverBytes() int64 {
	return int64(len(p.chunks)) * recChunk * int64(unsafe.Sizeof(rec{}))
}

func (p *phaseData) count(state uint8) int {
	c := 0
	for i := 0; i < p.n; i++ {
		if p.rec(i).state == state {
			c++
		}
	}
	return c
}

// session drives one stack through its phases. seq and arrival carry over
// from ramp-up to run, so the run phase continues the same job stream and
// the same virtual arrival clock.
type session struct {
	s       spec
	st      *stack
	in      *input
	tr      *tracer // nil unless this is the traced run
	seq     int
	arrival time.Duration // open loop: virtual clock offered to SLO admission
}

// phase runs n submissions, or as many as fit in limit when limit > 0, and
// waits for every admitted one to be delivered.
func (se *session) phase(n int, limit time.Duration, keep int) (*phaseData, error) {
	p := &phaseData{keep: keep, kept: make([]outcome, 2*keep)}
	var err error
	if se.s.kind == streamLoop {
		err = se.streamed(p, n, limit)
	} else {
		se.looped(p, n, limit)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.n; i++ {
		if d := time.Duration(p.rec(i).done); d > p.wall {
			p.wall = d
		}
	}
	return p, nil
}

type item struct {
	r    *rec
	tk   *core.Ticket
	slot int
}

// looped is the closed and the open loop: one submitter, a fixed set of
// ticket waiters. Closed: a submission needs one of closedTokens tokens,
// returned when its ticket is delivered. Open: submissions follow the
// seeded schedule whatever the server does; each is timed from its due
// time, so a stalled submitter charges its stall to the jobs it delayed.
func (se *session) looped(p *phaseData, n int, limit time.Duration) {
	open := se.s.kind == openLoop
	waiters := closedTokens
	if open {
		waiters = pacedWaiters
	}
	tokens := make(chan struct{}, closedTokens)
	for i := 0; i < closedTokens; i++ {
		tokens <- struct{}{}
	}
	work := make(chan item, waiters) // one slot per waiter: the submitter blocks only if all are busy
	tallies := make([]tally, waiters)
	ctx := context.Background()
	var firstFail sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	if se.tr != nil {
		se.tr.reset(start)
	}
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for it := range work {
				rep, err := it.tk.Wait(ctx)
				it.r.done = int64(time.Since(start))
				if err != nil {
					it.r.state = failed
					firstFail.Do(func() { p.firstFn = err.Error() })
				} else {
					it.r.state = completed
					it.r.makespan = int64(rep.Makespan)
					t.note(rep)
				}
				if it.slot >= 0 {
					p.kept[it.slot] = outcome{rep, err}
				}
				if !open {
					tokens <- struct{}{}
				}
			}
		}(&tallies[w])
	}

	var due time.Duration // open loop: wall schedule
	for i := 0; n <= 0 || i < n; i++ {
		var opts []core.SubmitOptions
		var now time.Duration
		if open {
			gap := se.in.gaps[se.seq%len(se.in.gaps)]
			due += time.Duration(gap / pacedRate * float64(time.Second))
			se.arrival += time.Duration(gap / se.in.virtualRate * float64(time.Second))
			if limit > 0 && due >= limit {
				break
			}
			if d := due - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			now = due
			opts = []core.SubmitOptions{{Arrival: se.arrival, Deadline: sloDeadline}}
		} else {
			<-tokens
			now = time.Since(start)
			if limit > 0 && now >= limit {
				break
			}
		}
		pi := se.seq % len(se.in.jobs)
		job := se.in.jobs[pi]
		if se.tr != nil {
			job = se.tr.jobs[pi]
			se.tr.current[pi] = int32(i)
		}
		se.seq++
		r := p.grow()
		r.due, r.sent = int64(now), int64(time.Since(start))
		tk, err := se.st.submit(ctx, job, opts...)
		r.ret = int64(time.Since(start))
		slot := p.keepSlot(i)
		if err != nil {
			r.state, r.done = refused, r.ret
			if slot >= 0 {
				p.kept[slot] = outcome{nil, err}
			}
			if !open {
				tokens <- struct{}{}
			}
			continue
		}
		work <- item{r, tk, slot}
	}
	close(work)
	wg.Wait()
	for i := range tallies {
		p.tally.add(tallies[i])
	}
}

// streamed serves one stream of n windows (or until limit). A window is
// due when its first event is pulled and done when its report is retired.
func (se *session) streamed(p *phaseData, n int, limit time.Duration) error {
	if n <= 0 {
		n = 1 << 30
	}
	start := time.Now()
	// The driver pulls at most MaxInFlight windows ahead of retirement.
	pulled := make(chan *rec, 4*streamCfg.MaxInFlight)
	var stop func() bool
	if limit > 0 {
		stop = func() bool { return time.Since(start) >= limit }
	}
	// grow() runs on the stream driver's goroutine, which alone touches
	// p.chunks until the stream is done; records cross over by channel.
	sp := se.in.streamSpec(se.seq*streamCfg.WindowSize, n, stop, func(int) {
		r := p.grow()
		r.due = int64(time.Since(start))
		r.sent, r.ret = r.due, r.due
		pulled <- r
	})
	if se.tr != nil {
		se.tr.reset(start)
		sp.Build = se.tr.wrapBuild(sp.Build)
	}
	tk, err := se.st.srv.SubmitStream(context.Background(), sp)
	if err != nil {
		return err
	}
	p.streamSubmit = time.Since(start)
	i := 0
	for rep := range tk.Reports() {
		r := <-pulled
		r.done = int64(time.Since(start))
		r.state, r.makespan = completed, int64(rep.Makespan)
		p.tally.note(rep)
		if slot := p.keepSlot(i); slot >= 0 {
			p.kept[slot] = outcome{rep, nil}
		}
		i++
	}
	<-tk.Done()
	if err := tk.Err(); err != nil {
		return fmt.Errorf("stream ended early after %d windows: %w", i, err)
	}
	se.seq += p.n
	p.watermark = tk.Watermark()
	return nil
}

// fingerprint hashes the first n outcomes (at most what the phase ran and
// kept) in submission order: the report text of completed jobs, the error
// text of the others.
func (p *phaseData) fingerprint(n int) uint64 {
	h := fnv.New64a()
	for _, o := range p.kept[:min(n, p.keep, p.n)] {
		h.Write([]byte(o.text()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func (o outcome) text() string {
	switch {
	case o.err != nil:
		return "error: " + o.err.Error()
	case o.rep != nil:
		return o.rep.String()
	}
	return ""
}

// resubmitMismatch compares each kept job with its resubmission one pool
// cycle later. Jobs that recovery retried are skipped: a replayed task is
// priced as a restore, so those reports differ by design. A stream has no
// resubmissions: every window is a job of its own name.
func (p *phaseData) resubmitMismatch(pooled bool) (compared int, err error) {
	if !pooled {
		return 0, nil
	}
	for i := 0; i < p.keep && poolJobs+i < p.n; i++ {
		a, b := p.kept[i], p.kept[p.keep+i]
		if a.rep == nil || b.rep == nil || a.rep.Attempts > 1 || b.rep.Attempts > 1 {
			continue
		}
		compared++
		if a.rep.String() != b.rep.String() {
			return compared, fmt.Errorf("run job %d differs from its resubmission %d:\n%s---\n%s", i, poolJobs+i, a.rep, b.rep)
		}
	}
	return compared, nil
}

// boundary is every counter the driver reads between phases, from public
// accessors only.
type boundary struct {
	mallocs, totalAlloc uint64
	heap                uint64 // HeapAlloc after two collections
	cpu                 time.Duration
	gcCPU               float64 // seconds the collector has used
	reads, writes       uint64  // accesses served by the simulated memory devices
	counters            map[string]int64
	spans               int
	verbs, bytes        uint64
	shards              []shard.ShardStats
}

// readBoundary reads the counters, then collects twice so that heap is live
// memory only. withSpans also counts the telemetry spans, which copies them
// all, so only the traced run asks for it. release, if not nil, runs before
// the collections: it drops what the driver itself still holds.
func readBoundary(st *stack, withSpans bool, release func()) boundary {
	var b boundary
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.mallocs, b.totalAlloc = ms.Mallocs, ms.TotalAlloc
	b.cpu = cpuTime()
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	b.gcCPU = gc[0].Value.Float64()
	for _, rt := range st.runtimes() {
		for _, dev := range rt.Topology().Memories() {
			ds := dev.Stats()
			b.reads, b.writes = b.reads+ds.Reads, b.writes+ds.Writes
		}
	}
	b.counters = st.tel.Counters()
	if withSpans {
		b.spans = len(st.tel.Spans())
	}
	b.verbs, b.bytes = st.fabricStats()
	b.shards = st.shardStats()
	if release != nil {
		release()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.heap = ms.HeapAlloc
	return b
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func counterDelta(a, b boundary, layer telemetry.Layer, name string) float64 {
	k := string(layer) + "/" + name
	return float64(b.counters[k] - a.counters[k])
}

// measured is one run of one workload: its run phase, the boundaries
// around it, and how long set-up took.
type measured struct {
	s        spec
	in       *input
	st       *stack
	setup    time.Duration // median of the repetitions
	run      *phaseData
	before   boundary
	after    boundary
	fp       uint64
	resubs   int
	traceOut *tracer
}

// setUp builds the input and the stack until it has done so at least reps
// times and for at least budget, and keeps the last pair. setup_s
// is the median of the repetitions: the first ones fault in a fresh heap, and
// a set-up of a millisecond or two needs a couple of hundred repetitions
// before its median stops moving. Each starts from a collected heap, as the
// one set-up of a real process does, so none pays for the garbage of the
// repetition before it.
func setUp(s spec, seed int64, reps int, budget time.Duration) (*input, *stack, time.Duration, error) {
	var in *input
	var st *stack
	var times []float64
	for begin := time.Now(); len(times) < reps || (time.Since(begin) < budget && len(times) < setupRepsMax); {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		in = buildInput(s, seed)
		if st, err = newStack(s, seed, false); err != nil {
			return nil, nil, 0, err
		}
		if s.kind == openLoop {
			if err := in.priceVirtualRate(st.runtimes()[0]); err != nil {
				return nil, nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, st, time.Duration(median(times) * float64(time.Second)), nil
}

// measure runs ramp-up, the timed run and ramp-down on a fresh stack.
// seconds > 0 bounds the run phase by time, otherwise it is s.run jobs.
// traced swaps in the span-recording copy of the job pool.
func measure(s spec, seed int64, seconds float64, traced bool) (*measured, error) {
	reps, budget := setupReps, s.setupBudget()
	if traced {
		reps, budget = 1, 0 // setup_s comes from the untraced run
	}
	in, st, setup, err := setUp(s, seed, reps, budget)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	m := &measured{s: s, in: in, st: st, setup: setup}
	se := &session{s: s, st: st, in: in}
	if traced {
		se.tr = newTracer(in.jobs)
		m.traceOut = se.tr
	}
	if _, err = se.phase(s.ramp, 0, 0); err != nil {
		return nil, fmt.Errorf("%s: ramp-up: %w", s.name, err)
	}
	m.before = readBoundary(st, traced, nil)
	n, limit := s.run, time.Duration(0)
	if seconds > 0 {
		n, limit = 0, time.Duration(seconds*float64(time.Second))
	}
	if m.run, err = se.phase(n, limit, s.verify); err != nil {
		return nil, fmt.Errorf("%s: run: %w", s.name, err)
	}
	// Ramp-down: phase() returned only after every ticket was delivered, so
	// the stack is idle but open, which is the state retained memory is
	// defined on. The kept reports are reduced to a hash after the allocation
	// counters are read and before the heap is, so they count in neither.
	m.after = readBoundary(st, traced, func() {
		m.fp = m.run.fingerprint(s.verify)
		m.resubs, err = m.run.resubmitMismatch(len(in.jobs) > 0)
		m.run.kept = nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	if m.run.count(completed) == 0 {
		return nil, fmt.Errorf("%s: no job completed (first failure: %s)", s.name, m.run.firstFn)
	}
	return m, nil
}

// reference replays ramp-up and the first s.verify run-phase submissions on
// an identically configured single-worker stack and returns its phase, for
// the fingerprint and the failure counts the measured run must match.
func reference(s spec, seed int64, in *input) (*phaseData, error) {
	st, err := newStack(s, seed, true)
	if err != nil {
		return nil, err
	}
	se := &session{s: s, st: st, in: in}
	if _, err := se.phase(s.ramp, 0, 0); err != nil {
		return nil, err
	}
	p, err := se.phase(s.verify, 0, s.verify)
	if err != nil {
		return nil, err
	}
	return p, st.close()
}

// check compares the measured run with the reference pass. Any mismatch is
// an error, never a metric.
func (m *measured) check(ref *phaseData) error {
	if ref.n != m.s.verify {
		return fmt.Errorf("%s: reference pass ran %d of %d submissions", m.s.name, ref.n, m.s.verify)
	}
	v := min(m.s.verify, m.run.n) // a time-bounded run may be shorter than the prefix
	if want := ref.fingerprint(v); want != m.fp {
		return fmt.Errorf("%s: report fingerprint %016x differs from the single-worker reference %016x", m.s.name, m.fp, want)
	}
	for state, name := range map[uint8]string{failed: "failed", refused: "refused"} {
		got, want := 0, 0
		for i := 0; i < v; i++ {
			if m.run.rec(i).state == state {
				got++
			}
			if ref.rec(i).state == state {
				want++
			}
		}
		if got != want {
			return fmt.Errorf("%s: %d jobs %s among the first %d, the reference has %d", m.s.name, got, name, v, want)
		}
	}
	return nil
}

func (m *measured) close() error { return m.st.close() }
