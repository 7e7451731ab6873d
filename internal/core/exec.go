package core

// This file is the engine's one drive loop. Whatever submitted a job — a solo
// Run, RunAll, a served batch, a shard's server, a stream's window — the job
// executes here, as a member of one wavePool, and if it fails it is retried
// here, by one ladder (DESIGN.md §6.1).

import (
	"context"
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

// member is one job's passage through drive. The caller builds the first
// attempt's run (plan, owner namespace, core table) and names what only it
// knows about the submitter; everything per attempt is the loop's.
type member struct {
	r *run
	// ctx is the submitter's context, probed for cancellation; nil never
	// cancels.
	ctx context.Context
	// resume is a snapshot namespace the submitter owns
	// (SubmitOptions.ResumeID): the run restores from it instead of minting
	// its own, and a cancellation leaves its snapshots for the owner's next
	// attempt. Ignored without recovery.
	resume string

	w       *wavefront      // the current attempt's dispatcher; nil once the member settled
	attempt int             // 1-based
	waits   []time.Duration // virtual backoff waited before each retry
}

// outcome is what drive hands back for one member, as that member settles.
type outcome struct {
	rep *Report // the finished job's report; nil unless it succeeded
	// err is why it did not: the cancellation probe's error as is, or the
	// lowest-rank task failure of the last attempt, naming job and task.
	err      error
	canceled bool
}

// drive executes members to completion on one shared worker pool and calls
// settle exactly once per member, with its index, as soon as that member is
// done — never at the end of the batch. Every member's ready tasks compete for
// the pool's slots in deterministic (rank, submission) order, so the narrow
// phases of one job overlap its mates' work. Virtual time is per member: each
// prices against its own clone of the epoch as it stood when drive was called
// and against its own run's core clocks, so a mate's failure, retry or mere
// presence never moves anyone else's report. What members share in virtual
// time is what the caller made them share before calling — the epoch's
// backlog and, if their runs were built over one table, the core clocks
// (RunAll, which calls drive once per job).
//
// rec, when non-nil, is the recovery ladder: task outputs are checkpointed
// under the member's snapshot namespace, and a failed attempt is followed —
// up to rec.maxAttempts, while the submitter has not given up — by a fresh
// run of the same plan (run.retry) that restores what was checkpointed and
// starts no earlier than the backoff allows. The retry joins the live pool as
// a new member — the drained attempt left it when it drained — overlapping the
// rest of the batch. Snapshots are forgotten when the member settles, unless
// it was canceled out of a namespace its submitter owns.
func (rt *Runtime) drive(epoch *topology.Epoch, rec *recoveryState, members []member, settle func(i int, o outcome)) {
	// Every attempt seeds from a clone of this view, never from a live epoch
	// read that could see a mate's mid-flight absorb.
	seed := epoch.View()
	p := newWavePool(rt.workers)
	// begin builds the dispatcher of m's current run; a plan the run cannot
	// execute is a failure of that attempt's first task.
	begin := func(m *member) (failed string, err error) {
		sv := topology.GetTaskView(seed)
		if m.w, failed, err = m.r.newWavefront(m.ctx, sv); err != nil {
			topology.PutTaskView(sv)
			m.r.cleanup()
		}
		return failed, err
	}
	// done settles m: the submitter gets the outcome and the free list the
	// job's scratch, which nothing of m's is left to touch.
	done := func(i int, m *member, o outcome) {
		settle(i, o)
		rt.putScratch(m.r.sc)
		m.r.sc = nil
	}
	// fail settles m with its last attempt's failure.
	fail := func(i int, m *member, task string, err error) {
		rec.forget(m.r.ck)
		job := m.r.job.Name()
		if m.attempt > 1 {
			err = fmt.Errorf("core: job %s failed after %d attempts: task %s: %w", job, m.attempt, task, err)
		} else {
			err = fmt.Errorf("core: job %s task %s: %w", job, task, err)
		}
		done(i, m, outcome{err: err})
	}

	live := 0
	for i := range members {
		m := &members[i]
		m.attempt = 1
		if rec != nil {
			// The namespace is unique per submission, so same-named jobs in
			// flight never restore or forget each other's snapshots.
			id := m.resume
			if id == "" {
				id = rec.ck.NewRunID(m.r.job.Name())
			}
			m.r.ck, m.r.partial = rec.ck.open(id), rec.partial
		}
		if failed, err := begin(m); err != nil {
			fail(i, m, failed, err)
			continue
		}
		p.attach(m.w)
		live++
	}

	p.mu.Lock()
	// Grant every member's initial claims before the first launch, so the
	// pool's (rank, submission) tiebreak sees the whole batch at once.
	for i := range members {
		if w := members[i].w; w != nil {
			w.advance()
		}
	}
	p.launch()
	for live > 0 {
		settled := false
		for i := range members {
			m := &members[i]
			if m.w == nil || !m.w.drainedLocked() {
				continue
			}
			settled = true
			// The attempt is over, whatever follows it: it leaves the pool
			// here, before a retry can join. Finalization is region teardown
			// and checkpoint-store I/O: the pool keeps dispatching the other
			// members meanwhile.
			p.detach(m.w)
			p.mu.Unlock()
			failed, err := m.w.finalize()
			m.w = nil
			gaveUp := m.ctx != nil && m.ctx.Err() != nil
			switch {
			case err == nil:
				rec.forget(m.r.ck)
				rep := m.r.report
				rep.Attempts, rep.AttemptWaits = m.attempt, m.waits
				if m.attempt > 1 || rep.SkippedTasks > 0 {
					rep.ReplayedTasks = len(rep.Tasks) - rep.SkippedTasks
				}
				done(i, m, outcome{rep: rep})
			case failed == "" && gaveUp:
				// Canceled mid-wavefront; the run is already cleaned up.
				if m.resume == "" {
					rec.forget(m.r.ck)
				}
				done(i, m, outcome{err: err, canceled: true})
			case rec != nil && m.attempt < rec.maxAttempts && !gaveUp:
				rt.tel.Add(telemetry.LayerFault, "job_retries", 1)
				wait := backoffWait(rec, m.attempt)
				m.r = m.r.retry(wait)
				m.waits = append(m.waits, wait)
				m.attempt++
				if failed, err = begin(m); err != nil {
					fail(i, m, failed, err)
				}
			default:
				fail(i, m, failed, err)
			}
			p.mu.Lock()
			if m.w == nil {
				live--
				continue
			}
			p.attach(m.w)
			m.w.advance()
			p.launch()
		}
		if !settled {
			p.cond.Wait()
		}
	}
	p.mu.Unlock()
	topology.PutTaskView(seed)
}

// driveOne is drive for a batch of one: the run, nobody to cancel it.
func (rt *Runtime) driveOne(epoch *topology.Epoch, rec *recoveryState, r *run) (*Report, error) {
	var out outcome
	rt.drive(epoch, rec, []member{{r: r}}, func(_ int, o outcome) { out = o })
	return out.rep, out.err
}

// backoffDoublings bounds the exponential growth of retry waits: a wait
// stops doubling at 8×Backoff.
const backoffDoublings = 3

// backoffWait is the virtual-time delay inserted before the retry that
// follows a failed attempt (1-based): backoff·2^(attempt-1), capped.
func backoffWait(rec *recoveryState, attempt int) time.Duration {
	if rec.backoff <= 0 {
		return 0
	}
	return rec.backoff << min(attempt-1, backoffDoublings)
}
