package core

// SLO-aware admission and queue-wait-driven auto-scaling for core.Server —
// the serving-side half of judging the system by application-visible
// latency rather than device throughput. Admission prices every submission
// with the scheduler's makespan estimate (sched.EstimateJob) and simulates
// the serving pool as a deterministic FIFO multi-server queue in virtual
// time: a submission whose predicted sojourn (queue wait + service) exceeds
// its deadline is rejected — or admitted as best-effort when the policy
// down-tiers instead — *before* it consumes a queue slot. Because the model
// advances only on arrivals and estimates, the admit/reject sequence is a
// pure function of the submission sequence: a fixed-seed traffic replay
// makes identical decisions at any wall-clock speed, worker count, or
// auto-scaler activity.
//
// The auto-scaler is the wall-clock complement: it watches the observed
// queue-wait p99 over a sliding window and grows or shrinks the live
// epoch-worker pool between configured bounds. It never feeds back into the
// admission model (which would launder wall-clock noise into admission
// decisions); it only changes how fast the real pool drains.

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// ErrDeadline is returned by Submit/SubmitAsync when SLO admission predicts
// the job cannot complete within its deadline and the policy rejects rather
// than down-tiers.
var ErrDeadline = errors.New("core: predicted completion exceeds the submission's deadline")

// SLOPolicy makes admission deadline-aware (ServerConfig.SLO).
//
// A submission's deadline is its own (SubmitOptions.Deadline), measured in
// virtual time from its arrival: queue wait in the admission model plus the
// scheduler's makespan estimate must fit inside it. A submission without one
// is admitted ungated.
type SLOPolicy struct {
	// DownTier admits deadline-missing jobs as best-effort instead of
	// rejecting them: the job runs (and occupies model capacity, since it
	// consumes real capacity), its report is marked BestEffort, and it is
	// excluded from the SLO-attainment population.
	DownTier bool
	// Workers is the modeled pool width (default EpochWorkers). It is
	// deliberately decoupled from the auto-scaler's live worker count so
	// admission stays a deterministic function of the submission sequence.
	Workers int
}

// SubmitOptions is the unified per-submission surface shared by Submit,
// SubmitAsync, and SubmitStream (each accepts at most one): admission
// inputs for the SLO model (Arrival, Deadline), resume (ResumeID),
// pre-admission (Preadmitted), and the shard label sharded routers stamp on
// reports (Shard). The zero value is a plain submission.
type SubmitOptions struct {
	// Arrival is the submission's virtual arrival time on the server's
	// admission clock. Zero (or any value behind the clock) means "now":
	// the clock's high-water mark. Traffic harnesses drive this from their
	// arrival process, which is what makes replayed admission decisions
	// reproducible run-to-run.
	Arrival time.Duration
	// Deadline is the submission's completion deadline for the SLO admission
	// model (SLOPolicy), in virtual time from its arrival. Zero admits it
	// ungated.
	Deadline time.Duration
	// Shard labels the serving shard handling this submission. Purely
	// informational: it is copied to Report.Shard (which String() omits, so
	// sharded reports stay byte-identical to solo runs).
	Shard string
	// ResumeID, when non-empty, is an externally minted checkpoint
	// namespace (Checkpointer.NewRunID) the run adopts instead of minting
	// its own. A sharded router uses it to re-submit a job that died with
	// its shard on a survivor: snapshots the dead shard's attempt persisted
	// are restored instead of re-executed (partial replay across shards).
	// The namespace is owned by whoever minted it — a run canceled mid-way
	// leaves the snapshots in place for the next attempt; terminal
	// completion or failure still forgets them. Ignored without
	// ServerConfig.Recovery.
	ResumeID string
	// Preadmitted bypasses the SLO admission model for this submission:
	// the job was already admitted once (on a shard that has since died)
	// and failover must not re-litigate — or double-charge — admission.
	// Ignored without ServerConfig.SLO.
	Preadmitted bool
}

// sloTier is the admission model's verdict for one submission.
type sloTier int

const (
	tierGuaranteed sloTier = iota // predicted to meet its deadline
	tierBestEffort                // predicted miss, admitted down-tiered
	tierRejected                  // predicted miss, refused
)

// sloState is the deterministic admission queue model: one virtual free
// time per modeled worker, advanced by estimates at admission. Arrivals
// are clamped monotone, so the model is a G/G/k FIFO simulation over the
// submission sequence — wall-clock execution speed never enters it.
type sloState struct {
	pol SLOPolicy

	mu     sync.Mutex
	freeAt []time.Duration // per modeled worker: virtual time it frees up
	clock  time.Duration   // arrival high-water mark
	// charges counts the admissions that occupy model capacity: a refund
	// undoes a charge only while it is still the last one.
	charges uint64
}

// sloCharge is what one admission charged the model: the worker it occupied,
// that worker's free time before, and the charge's number.
type sloCharge struct {
	worker int
	freeAt time.Duration
	n      uint64
}

func newSLOState(pol SLOPolicy, epochWorkers int) *sloState {
	w := pol.Workers
	if w <= 0 {
		w = epochWorkers
	}
	return &sloState{pol: pol, freeAt: make([]time.Duration, w)}
}

// admit plays one arrival through the queue model. It returns the predicted
// queue wait, the predicted sojourn (wait + service estimate), and the
// verdict; only admitted submissions (guaranteed or best-effort) occupy
// model capacity, and for them charge is what refund gives back.
func (m *sloState) admit(opt SubmitOptions, estimate time.Duration) (wait, predicted time.Duration, tier sloTier, charge sloCharge) {
	deadline := opt.Deadline
	m.mu.Lock()
	defer m.mu.Unlock()
	if opt.Arrival > m.clock {
		m.clock = opt.Arrival
	}
	arrival := m.clock
	best := 0
	for i, at := range m.freeAt {
		if at < m.freeAt[best] {
			best = i
		}
	}
	start := arrival
	if m.freeAt[best] > start {
		start = m.freeAt[best]
	}
	wait = start - arrival
	predicted = wait + estimate
	if deadline > 0 && predicted > deadline && !m.pol.DownTier {
		return wait, predicted, tierRejected, sloCharge{}
	}
	m.charges++
	charge = sloCharge{worker: best, freeAt: m.freeAt[best], n: m.charges}
	m.freeAt[best] = start + estimate
	if deadline > 0 && predicted > deadline {
		return wait, predicted, tierBestEffort, charge
	}
	return wait, predicted, tierGuaranteed, charge
}

// refund gives back the capacity an admission charged for a submission the
// queue then refused, if no admission was charged since: a later verdict was
// priced behind it, and stays as it was given.
func (m *sloState) refund(c sloCharge) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.charges == c.n {
		m.freeAt[c.worker] = c.freeAt
		m.charges--
	}
}

// AutoScalePolicy grows and shrinks the live epoch-worker pool against the
// observed queue-wait p99 (ServerConfig.AutoScale).
type AutoScalePolicy struct {
	// Max bounds the live worker count from above (default 4×EpochWorkers).
	// It never shrinks below the configured EpochWorkers.
	Max int
	// TargetP99 is the queue-wait p99 the controller steers toward: above
	// it the pool grows, comfortably below it (half the target, for
	// hysteresis) the pool shrinks. Default 10ms.
	TargetP99 time.Duration
}

// The controller decides every scaleInterval, over the queue waits of the
// last scaleWindow dequeued jobs.
const (
	scaleInterval = 25 * time.Millisecond
	scaleWindow   = 256
)

// scaler is the running controller.
type scaler struct {
	s   *Server
	pol AutoScalePolicy

	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	cur    int // live workers (controller's view)
	ring   []time.Duration
	widx   int
	filled bool
}

func newScaler(s *Server, pol AutoScalePolicy, epochWorkers int) *scaler {
	if pol.Max <= 0 {
		pol.Max = 4 * epochWorkers
	}
	if pol.Max < epochWorkers {
		pol.Max = epochWorkers
	}
	if pol.TargetP99 <= 0 {
		pol.TargetP99 = 10 * time.Millisecond
	}
	return &scaler{
		s: s, pol: pol,
		stop: make(chan struct{}), done: make(chan struct{}),
		cur:  epochWorkers,
		ring: make([]time.Duration, scaleWindow),
	}
}

// note feeds one observed queue wait into the sliding window.
func (sc *scaler) note(d time.Duration) {
	sc.mu.Lock()
	sc.ring[sc.widx] = d
	sc.widx++
	if sc.widx == len(sc.ring) {
		sc.widx, sc.filled = 0, true
	}
	sc.mu.Unlock()
}

// windowP99 computes the p99 over the current window (0 when empty).
func (sc *scaler) windowP99() time.Duration {
	sc.mu.Lock()
	n := sc.widx
	if sc.filled {
		n = len(sc.ring)
	}
	samples := make([]time.Duration, n)
	copy(samples, sc.ring[:n])
	sc.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	idx := (n*99 + 99) / 100 // ceil(0.99·n)
	if idx > n {
		idx = n
	}
	return samples[idx-1]
}

// loop runs control decisions until stopped (Server.Close).
func (sc *scaler) loop() {
	defer close(sc.done)
	t := time.NewTicker(scaleInterval)
	defer t.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-t.C:
			sc.step()
		}
	}
}

// step makes one scaling decision. Growing spawns a worker on the shared
// queue; shrinking parks a token on the shrink channel, which the next
// worker to observe it consumes by exiting. Both directions move one worker
// per interval — deliberate damping against a noisy p99. A scale-up holds
// the admission gate's read side, so once Close has flipped the server closed
// no step adds a worker to the group Close waits on.
func (sc *scaler) step() {
	p99 := sc.windowP99()
	sc.mu.Lock()
	cur := sc.cur
	sc.mu.Unlock()
	switch {
	case p99 > sc.pol.TargetP99 && cur < sc.pol.Max:
		sc.s.gate.RLock()
		defer sc.s.gate.RUnlock()
		if sc.s.closed {
			return
		}
		sc.mu.Lock()
		sc.cur++
		sc.mu.Unlock()
		sc.s.wg.Add(1)
		go sc.s.worker()
		sc.s.rt.tel.Add(telemetry.LayerRuntime, "server_scale_up", 1)
	case cur > sc.s.workers && p99 < sc.pol.TargetP99/2:
		select {
		case sc.s.shrink <- struct{}{}:
			sc.mu.Lock()
			sc.cur--
			sc.mu.Unlock()
			sc.s.rt.tel.Add(telemetry.LayerRuntime, "server_scale_down", 1)
		default: // a previous token is still unconsumed; stay damped
		}
	}
}

// stopWait halts the controller and blocks until its goroutine exited.
func (sc *scaler) stopWait() {
	close(sc.stop)
	<-sc.done
}

// LiveWorkers reports the current epoch-worker count the auto-scaler
// believes is live (the configured EpochWorkers when auto-scaling is off).
func (s *Server) LiveWorkers() int {
	if s.scaler == nil {
		return s.workers
	}
	s.scaler.mu.Lock()
	defer s.scaler.mu.Unlock()
	return s.scaler.cur
}
