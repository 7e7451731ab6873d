package core

// This file is the engine's one drive loop. Whatever submitted a job — a solo
// Run, RunAll, a served batch, a shard's server, a stream's window — the job
// executes as a member of one wavePool, and if it fails it is retried here, by
// one ladder (DESIGN.md §6.1). The pool alone runs its members; drive joins
// them and pumps the ones that settle.

import (
	"context"
	"fmt"

	"repro/internal/telemetry"
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

	w       *wavefront // the current attempt's dispatcher; nil once the member settled
	attempt int        // 1-based
}

// outcome is what drive hands back for one member, as that member settles.
type outcome struct {
	rep *Report // the finished job's report; nil unless it succeeded
	// err is why it did not: the cancellation probe's error as is, or the
	// lowest-rank task failure of the last attempt, naming job and task.
	err      error
	canceled bool
}

// drive executes members to completion on the worker pool p and calls
// settle exactly once per member, with its index, as soon as that member is
// done — never at the end of the batch. Every member's ready tasks compete for
// the pool's slots in deterministic (rank, submission) order, so the narrow
// phases of one job overlap its mates' work. Virtual time is per member: each
// prices against its own tasks' clock views, seeded from its run's seed, and
// against its own run's core clocks, so a mate's failure, retry or mere
// presence never moves anyone else's report. What members share in virtual
// time is what the caller made them share before calling — a seed view and,
// if their runs were built over one table, the core clocks (RunAll, which
// calls drive once per job).
//
// rec, when non-nil, is the recovery ladder: task outputs are checkpointed
// under the member's snapshot namespace, and a failed attempt is followed —
// up to rec.maxAttempts, while the submitter has not given up — by a fresh
// run of the same plan (run.retry) that restores what was checkpointed and
// continues on the core clocks its failed attempt left. The retry joins the
// live pool as a new member — the drained attempt left it when it drained —
// overlapping the rest of the batch. Snapshots are forgotten when the member
// settles, unless it was canceled out of a namespace its submitter owns.
//
// p is idle — no member joined, every slot free — and drive leaves it idle
// again, so a caller may hand the same pool to one drive call after another
// (a server's epoch worker).
func (rt *Runtime) drive(p *wavePool, rec *recoveryState, members []member, settle func(i int, o outcome)) {
	// begin builds the dispatcher of m's current run; a plan the run cannot
	// execute is a failure of that attempt's first task.
	begin := func(m *member) (failed string, err error) {
		if m.w, failed, err = m.r.newWavefront(m.ctx); err != nil {
			m.r.cleanup()
		}
		return failed, err
	}
	// done settles m: the free list gets the job's scratch, which nothing of
	// m's is left to touch, and then the submitter the outcome — in that
	// order, so a submitter's next job finds the scratch there.
	done := func(i int, m *member, o outcome) {
		rt.putScratch(m.r.sc)
		m.r.sc = nil
		settle(i, o)
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
		live++
	}
	p.join(members)

	// The pump: each attempt over is finalized and run down the ladder here,
	// outside the pool lock — finalization is region teardown and
	// checkpoint-store I/O, and the pool keeps dispatching the other members
	// meanwhile. A retry joins the live pool again.
	for live > 0 {
		w := p.settled()
		i := 0
		for members[i].w != w {
			i++
		}
		m := &members[i]
		m.w = nil
		failed, err := w.finalize()
		gaveUp := m.ctx != nil && m.ctx.Err() != nil
		switch {
		case err == nil:
			rec.forget(m.r.ck)
			rep := m.r.report
			rep.Attempts = m.attempt
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
			m.r = m.r.retry()
			m.attempt++
			if failed, err = begin(m); err != nil {
				fail(i, m, failed, err)
			}
		default:
			fail(i, m, failed, err)
		}
		if m.w == nil {
			live--
		} else {
			p.join(members[i : i+1])
		}
	}
}

// driveOne is drive for a batch of one, on a pool of its own: the run, nobody
// to cancel it.
func (rt *Runtime) driveOne(rec *recoveryState, r *run) (*Report, error) {
	var out outcome
	rt.drive(newWavePool(rt.workers), rec, []member{{r: r}}, func(_ int, o outcome) { out = o })
	return out.rep, out.err
}
