// Package loadgen is the open-loop traffic harness: it replays a
// production-shaped request stream against a core.Submitter and reports what
// the application sees — queue wait, virtual sojourn, wall latency — at
// p50/p99/p999, plus the admission ledger (admitted / down-tiered /
// rejected).
//
// Open-loop means arrivals never wait for completions: the arrival process
// (Poisson or bursty, optionally diurnally modulated) fixes each
// submission's virtual arrival time up front, and the driver submits in
// that order regardless of how the server is keeping up. That is the shape
// that exposes overload — a closed loop self-throttles and hides it.
//
// Everything the admission path sees is derived from the seed: the arrival
// clock, the job stream (workload.Mix), and the per-submission deadline.
// Because core's SLO admission is itself a deterministic virtual-time
// model, two runs with the same seed produce identical decision sequences
// — Result.AdmissionSig pins that, and Verify replays a second pass to
// prove it.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Process selects the arrival process.
type Process string

const (
	// Poisson arrivals: i.i.d. exponential inter-arrival times, the
	// classic open-loop baseline.
	Poisson Process = "poisson"
	// Bursty arrivals: Poisson burst epochs, each delivering BurstSize
	// near-simultaneous submissions. Same mean rate as Poisson, far worse
	// tail behaviour — the p999 separator.
	Bursty Process = "bursty"
)

// Config tunes one harness run.
type Config struct {
	// N is the number of submissions (default 1000; production-shaped runs
	// use 100k+).
	N int
	// Seed drives the arrival process, the job mix, and nothing else.
	Seed int64
	// Process is the arrival process (default Poisson).
	Process Process
	// Rate is the mean arrival rate in jobs per virtual second. Zero
	// derives it from Rho: the rate at which the estimated work of the
	// stream loads the admission model's pool to Rho utilization.
	Rate float64
	// Rho is the target utilization used when Rate is zero (default 0.9;
	// >1 deliberately overloads).
	Rho float64
	// Workers is the modeled pool width used for the Rho→Rate derivation.
	// It should match SLOPolicy.Workers / EpochWorkers (default 4).
	Workers int
	// BurstSize is the burst width for the bursty process (default 16).
	BurstSize int
	// DiurnalAmplitude modulates the instantaneous rate sinusoidally:
	// rate(t) = Rate·(1 + A·sin(2πt/DiurnalPeriod)), clamped to [0,1).
	// Zero disables modulation.
	DiurnalAmplitude float64
	// DiurnalPeriod is the virtual period of the modulation. Zero defaults
	// to the expected span of the run (N/Rate), i.e. one full "day".
	DiurnalPeriod time.Duration
	// Deadline is stamped on every submission (SubmitOptions.Deadline).
	// Zero leaves every submission ungated by SLO admission.
	Deadline time.Duration
	// Warmup excludes the first Warmup submissions from the latency
	// distributions (they still count in the admission ledger and the
	// signature). Default 0.
	Warmup int
	// Pace slows wall-clock submission to track virtual time: a submission
	// at virtual time t is issued no earlier than wall t/Pace after the
	// run started. Zero submits back-to-back (as fast as the queue
	// accepts), which is the right mode for virtual-time measurements.
	Pace float64
	// Mix configures the job sampler. Mix.Seed is overridden with Seed.
	Mix workload.MixConfig
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 1000
	}
	if c.Process == "" {
		c.Process = Poisson
	}
	if c.Rho <= 0 {
		c.Rho = 0.9
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.BurstSize <= 1 {
		c.BurstSize = 16
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		c.DiurnalAmplitude = 0
	}
	c.Mix.Seed = c.Seed
	return c
}

// Dist summarizes one latency population with exact (sorted-sample)
// quantiles — the harness keeps every sample, so no histogram
// interpolation error enters the reported tails.
type Dist struct {
	N    int           `json:"n"`
	Mean time.Duration `json:"mean"`
	P50  time.Duration `json:"p50"`
	P99  time.Duration `json:"p99"`
	P999 time.Duration `json:"p999"`
	Max  time.Duration `json:"max"`
}

func distOf(samples []time.Duration) Dist {
	n := len(samples)
	if n == 0 {
		return Dist{}
	}
	sorted := make([]time.Duration, n)
	copy(sorted, samples)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	var sum time.Duration
	for _, s := range sorted {
		sum += s
	}
	q := func(p float64) time.Duration {
		idx := int(math.Ceil(p*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		return sorted[idx]
	}
	return Dist{
		N:    n,
		Mean: sum / time.Duration(n),
		P50:  q(0.50),
		P99:  q(0.99),
		P999: q(0.999),
		Max:  sorted[n-1],
	}
}

// Result is one harness run's full accounting.
type Result struct {
	Process Process       `json:"process"`
	N       int           `json:"n"`
	Seed    int64         `json:"seed"`
	Rate    float64       `json:"rate_jobs_per_sec"`
	Span    time.Duration `json:"virtual_span"`

	// Admission ledger. Submitted = Admitted + BestEffort + RejectedSLO +
	// RejectedQueue + Errors. Admitted counts guaranteed-tier only.
	Submitted     int `json:"submitted"`
	Admitted      int `json:"admitted"`
	BestEffort    int `json:"best_effort"`
	RejectedSLO   int `json:"rejected_slo"`
	RejectedQueue int `json:"rejected_queue"`
	Errors        int `json:"errors"`

	// Completion ledger over admitted (incl. best-effort) jobs.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	// SLOMet/SLOMissed split guaranteed-tier completions by achieved
	// virtual sojourn (SLOWait + Makespan) against the deadline.
	SLOMet    int `json:"slo_met"`
	SLOMissed int `json:"slo_missed"`

	// AdmissionSig is an FNV-64a hash over the per-submission decision
	// stream — the reproducibility fingerprint. Two runs with identical
	// config must produce identical signatures.
	AdmissionSig string `json:"admission_sig"`

	// Latency distributions (post-warmup). QueueWaitWall comes from the
	// server's telemetry histogram and is wall-clock (interpolated
	// quantiles); the rest are exact over harness-held samples.
	VirtualSojourn  Dist                   `json:"virtual_sojourn"`  // SLOWait + Makespan, admitted jobs
	VirtualMakespan Dist                   `json:"virtual_makespan"` // Makespan alone
	WallLatency     Dist                   `json:"wall_latency"`     // submit → ticket delivery
	QueueWaitWall   telemetry.HistSnapshot `json:"queue_wait_wall"`

	Elapsed    time.Duration `json:"elapsed"`
	JobsPerSec float64       `json:"jobs_per_sec"` // completed per wall second
}

// arrivals generates the virtual arrival clock. Deterministic per seed.
type arrivals struct {
	rng       *rand.Rand
	rate      float64 // mean jobs per virtual second
	burstSize int
	bursty    bool
	amp       float64
	period    time.Duration

	now       time.Duration
	burstLeft int
}

func newArrivals(cfg Config, rate float64) *arrivals {
	return &arrivals{
		// Offset the seed so the arrival stream and the job mix draw from
		// unrelated sequences.
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x6c6f616467656e)), // "loadgen"
		rate:      rate,
		burstSize: cfg.BurstSize,
		bursty:    cfg.Process == Bursty,
		amp:       cfg.DiurnalAmplitude,
		period:    cfg.DiurnalPeriod,
	}
}

// exp draws an exponential inter-arrival at the given rate.
func (a *arrivals) exp(rate float64) time.Duration {
	return time.Duration(a.rng.ExpFloat64() / rate * float64(time.Second))
}

// advance moves the clock by one inter-arrival at the (possibly
// diurnally modulated) base rate, via thinning: candidates are drawn at
// the peak rate and accepted with probability rate(t)/peak, which keeps
// the modulated process a proper non-homogeneous Poisson stream.
func (a *arrivals) advance(rate float64) {
	if a.amp == 0 {
		a.now += a.exp(rate)
		return
	}
	peak := rate * (1 + a.amp)
	for {
		a.now += a.exp(peak)
		t := a.now.Seconds()
		inst := rate * (1 + a.amp*math.Sin(2*math.Pi*t/a.period.Seconds()))
		if a.rng.Float64()*peak <= inst {
			return
		}
	}
}

// next returns the virtual arrival time of the next submission.
func (a *arrivals) next() time.Duration {
	if !a.bursty {
		a.advance(a.rate)
		return a.now
	}
	if a.burstLeft == 0 {
		// Burst epochs arrive at rate/burstSize so the mean job rate
		// matches the Poisson configuration.
		a.advance(a.rate / float64(a.burstSize))
		a.burstLeft = a.burstSize
	} else {
		// Within a burst, jobs land nearly on top of each other: spacing
		// drawn at 50× the mean rate.
		a.now += a.exp(a.rate * 50)
	}
	a.burstLeft--
	return a.now
}

// deriveRate turns a target utilization into an arrival rate by pricing a
// sample of the job stream with the scheduler's estimator: rate such that
// (rate × mean estimated makespan) / workers = rho.
func deriveRate(cfg Config, srv core.Submitter) (float64, error) {
	probe := workload.NewMix(cfg.Mix) // fresh sampler; the run's own mix is untouched
	rt := srv.Runtime()
	const sample = 200
	var total time.Duration
	n := cfg.N
	if n > sample {
		n = sample
	}
	for i := 0; i < n; i++ {
		est, _, err := sched.EstimateJob(probe.Next(), rt.Topology(), rt.Scheduler())
		if err != nil {
			return 0, fmt.Errorf("loadgen: pricing sample job: %w", err)
		}
		total += est.Makespan
	}
	mean := total / time.Duration(n)
	if mean <= 0 {
		return 0, fmt.Errorf("loadgen: sampled jobs have zero estimated makespan")
	}
	return cfg.Rho * float64(cfg.Workers) / mean.Seconds(), nil
}

// outcome is one admitted job's completion record.
type outcome struct {
	idx  int
	rep  *core.Report
	err  error
	wall time.Duration
}

// Run replays cfg's traffic against srv and blocks until every admitted
// job completes. srv must outlive the call; Run does not close it.
func Run(ctx context.Context, srv core.Submitter, cfg Config) (*Result, error) {
	if srv == nil {
		return nil, fmt.Errorf("loadgen: nil server")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()

	rate := cfg.Rate
	if rate <= 0 {
		var err error
		if rate, err = deriveRate(cfg, srv); err != nil {
			return nil, err
		}
	}
	c2 := cfg
	if c2.DiurnalPeriod <= 0 {
		// Default the diurnal period to the run's expected span: one full
		// cycle per run.
		c2.DiurnalPeriod = time.Duration(float64(cfg.N) / rate * float64(time.Second))
	}

	arr := newArrivals(c2, rate)
	mix := workload.NewMix(c2.Mix)
	sig := fnv.New64a()
	res := &Result{Process: c2.Process, N: c2.N, Seed: c2.Seed, Rate: rate}

	outcomes := make(chan outcome, c2.N)
	var wg sync.WaitGroup
	start := time.Now()

	for i := 0; i < c2.N; i++ {
		at := arr.next()
		job := mix.Next()
		if c2.Pace > 0 {
			wake := start.Add(time.Duration(float64(at) / c2.Pace))
			if d := time.Until(wake); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}
		res.Submitted++
		tk, err := srv.SubmitAsync(ctx, job, core.SubmitOptions{Arrival: at, Deadline: c2.Deadline})
		switch {
		case err == nil && tk.BestEffort():
			sig.Write([]byte{'B'})
			res.BestEffort++
		case err == nil:
			sig.Write([]byte{'A'})
			res.Admitted++
		case errors.Is(err, core.ErrDeadline):
			sig.Write([]byte{'S'})
			res.RejectedSLO++
			continue
		case errors.Is(err, core.ErrQueueFull):
			// Wall-clock dependent; excluded from the signature by design.
			// The refusal gave back the job's SLO charge, so later verdicts
			// are priced as if it had never been offered.
			res.RejectedQueue++
			continue
		default:
			res.Errors++
			continue
		}
		wg.Add(1)
		go func(idx int, submitted time.Time, tk *core.Ticket) {
			defer wg.Done()
			rep, werr := tk.Wait(ctx)
			outcomes <- outcome{idx: idx, rep: rep, err: werr, wall: time.Since(submitted)}
		}(i, time.Now(), tk)
	}
	res.Span = arr.now

	wg.Wait()
	close(outcomes)
	res.Elapsed = time.Since(start)

	var sojourns, makespans, walls []time.Duration
	for o := range outcomes {
		if o.err != nil || o.rep == nil {
			res.Failed++
			continue
		}
		res.Completed++
		sojourn := o.rep.SLOWait + o.rep.Makespan
		if o.rep.SLODeadline > 0 && !o.rep.BestEffort {
			if sojourn <= o.rep.SLODeadline {
				res.SLOMet++
			} else {
				res.SLOMissed++
			}
		}
		if o.idx < c2.Warmup {
			continue
		}
		sojourns = append(sojourns, sojourn)
		makespans = append(makespans, o.rep.Makespan)
		walls = append(walls, o.wall)
	}
	res.AdmissionSig = fmt.Sprintf("%016x", sig.Sum64())

	res.VirtualSojourn = distOf(sojourns)
	res.VirtualMakespan = distOf(makespans)
	res.WallLatency = distOf(walls)
	res.QueueWaitWall = srv.Runtime().Telemetry().Hist(telemetry.LayerRuntime, "server_queue_wait").Snapshot()
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.JobsPerSec = float64(res.Completed) / secs
	}
	return res, nil
}

// Summary renders the result for terminals.
func (r *Result) Summary() string {
	line := func(name string, d Dist) string {
		return fmt.Sprintf("  %-16s n=%d p50=%v p99=%v p999=%v max=%v\n", name, d.N, d.P50, d.P99, d.P999, d.Max)
	}
	s := fmt.Sprintf("loadgen: %s seed=%d rate=%.0f/s span=%v sig=%s\n", r.Process, r.Seed, r.Rate, r.Span.Round(time.Millisecond), r.AdmissionSig)
	s += fmt.Sprintf("  submitted=%d admitted=%d best-effort=%d rejected-slo=%d rejected-queue=%d errors=%d\n",
		r.Submitted, r.Admitted, r.BestEffort, r.RejectedSLO, r.RejectedQueue, r.Errors)
	s += fmt.Sprintf("  completed=%d failed=%d slo-met=%d slo-missed=%d (%.2f jobs/s wall)\n",
		r.Completed, r.Failed, r.SLOMet, r.SLOMissed, r.JobsPerSec)
	s += line("virtual sojourn", r.VirtualSojourn)
	s += line("virtual makespan", r.VirtualMakespan)
	s += line("wall latency", r.WallLatency)
	q := r.QueueWaitWall
	s += fmt.Sprintf("  %-16s n=%d p50=%v p99=%v p999=%v max=%v\n", "queue wait (wall)", q.Count, q.P50, q.P99, q.P999, q.Max)
	return s
}
