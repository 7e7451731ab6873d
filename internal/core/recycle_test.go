package core

// What recycling a job's dispatcher must not break: a drained wavefront is out
// of its pool before it can serve another job, and nothing a task body kept
// past its job ever reads state that has been handed on.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/region"
	"repro/internal/sched"
)

// settledBatchReports is the hash of TestSettledMembersLeaveThePool's eight
// reports with their recovery accounting.
const settledBatchReports = 0x750450540f5e9b75

// TestSettledMembersLeaveThePool: a batch of eight jobs that each need three
// attempts never has more than eight wavefronts in its pool — a drained
// attempt leaves before its retry joins — and the ladder's reports are the
// bytes they were when every attempt stayed a member to the end of the batch.
func TestSettledMembersLeaveThePool(t *testing.T) {
	const batch, attempts = 8, 3
	inj := fault.NewInjector(1, 0, 1)
	for i := 0; i < batch; i++ {
		inj.Kill(fmt.Sprintf("victim%d", i), attempts-1)
	}
	s := newRecoveryServer(t, inj,
		RecoveryPolicy{MaxAttempts: attempts, Backoff: 5 * time.Microsecond},
		ServerConfig{EpochWorkers: 1, MaxBatch: batch, QueueDepth: 2 * batch, Block: true})

	var widest atomic.Int64
	probe := func(ctx dataflow.Ctx) error {
		p := ctx.(*taskCtx).run.pool
		p.mu.Lock()
		n := int64(len(p.members))
		p.mu.Unlock()
		for w := widest.Load(); n > w && !widest.CompareAndSwap(w, n); w = widest.Load() {
		}
		return nil
	}
	jobs := make([]*dataflow.Job, batch)
	for i := range jobs {
		j := dataflow.NewJob(fmt.Sprintf("job%d", i))
		a := j.Task("a", dataflow.Props{Ops: float64(1+i) * 1e6, OutputBytes: 8 << 10}, probe)
		b := j.Task("b", dataflow.Props{Ops: 2e6, OutputBytes: 4 << 10}, probe)
		a.Then(b).Then(j.Task(fmt.Sprintf("victim%d", i), dataflow.Props{Ops: 1e6}, probe))
		jobs[i] = j
	}
	tks := submitOneBatch(t, s, jobs)

	sum := fnv.New64a()
	for i, tk := range tks {
		rep, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if rep.Attempts != attempts || rep.BatchSize != batch {
			t.Errorf("job %d: %d attempts in a batch of %d, want %d in %d", i, rep.Attempts, rep.BatchSize, attempts, batch)
		}
		fmt.Fprintf(sum, "%s%d%v%d%d\n", rep, rep.Attempts, rep.AttemptWaits, rep.SkippedTasks, rep.ReplayedTasks)
	}
	if w := widest.Load(); w > batch || w == 0 {
		t.Errorf("the pool held %d members at once, want 1..%d: settled attempts stayed attached", w, batch)
	}
	// Recorded from the same batch on the commit before members left the pool.
	if got, want := sum.Sum64(), uint64(settledBatchReports); got != want {
		t.Errorf("reports hash to %#x, want %#x", got, want)
	}
}

// leakyJob is a job whose bodies send handles out through leak, for the test
// to use after the job has settled: the source's shared output and a scratch,
// a consumer's share of that output and its own exclusive output, and — the
// one handle that stays good — a share of the source's output that a consumer
// made for an owner nobody releases, fenced by the consumer's context. stop,
// when non-nil, runs in the sink's predecessor: what cancels or fails the job.
func leakyJob(name string, leak chan<- *region.Handle, outsider chan<- *region.Handle, stop func() error) *dataflow.Job {
	j := dataflow.NewJob(name)
	src := j.Task("src", dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
		out, err := ctx.Output(4 << 10)
		if err != nil {
			return err
		}
		sc, err := ctx.Scratch("s", 1<<10)
		if err != nil {
			return err
		}
		leak <- out
		leak <- sc
		return nil
	})
	consumer := func(keep bool) dataflow.Fn {
		return func(ctx dataflow.Ctx) error {
			in := ctx.Inputs()[0]
			out, err := ctx.Output(256)
			if err != nil {
				return err
			}
			leak <- in
			leak <- out
			if keep {
				c := ctx.(*taskCtx)
				extra, err := in.Share(region.Owner(name+"/outsider"), ctx.Compute())
				if err != nil {
					return err
				}
				// No view: the task's own goes back to the pool with the run.
				extra.Rebind(nil, c.rank, c)
				outsider <- extra
			}
			return nil
		}
	}
	c1 := j.Task("c1", dataflow.Props{Ops: 1e5}, consumer(true))
	c2 := j.Task("c2", dataflow.Props{Ops: 1e5}, consumer(false))
	join := j.Task("join", dataflow.Props{Ops: 1e5, OutputBytes: 64}, func(dataflow.Ctx) error {
		if stop != nil {
			return stop()
		}
		return nil
	})
	src.Then(c1).Then(join)
	src.Then(c2).Then(join)
	join.Then(j.Task("sink", dataflow.Props{Ops: 1e5}, nil))
	return j
}

// TestLeakedHandlesNeverReachRecycledState: handles a task body kept, used
// after their job settled and 128 later jobs have been through the runtime's
// free lists, with 64 more going through them meanwhile, fail every method with the region layer's own
// errors — the regions were released with the run — and the one that is still
// good is served through a fence that finds its run over instead of waiting on
// the dispatcher, by then another job's. For a job that completed, one that
// was canceled mid-run, and one that failed and was retried.
func TestLeakedHandlesNeverReachRecycledState(t *testing.T) {
	ctxCancel, cancel := context.WithCancel(context.Background())
	defer cancel()
	failOnce := true
	scenarios := []struct {
		name    string
		ctx     context.Context
		stop    func() error
		wantErr bool
	}{
		{"completed", context.Background(), nil, false},
		{"canceled", ctxCancel, func() error { cancel(); return nil }, true},
		{"failed then retried", context.Background(), func() error {
			if failOnce {
				failOnce = false
				return errors.New("join: first attempt fails")
			}
			return nil
		}, false},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			s := newRecoveryServer(t, nil, RecoveryPolicy{},
				ServerConfig{EpochWorkers: 2, MaxBatch: 8, QueueDepth: 256, Block: true})
			// Twice what the bodies send in one attempt: a retry runs them again.
			leak, outsider := make(chan *region.Handle, 16), make(chan *region.Handle, 4)
			// Wait for the job to settle, not for its context: a canceled one
			// is still being torn down when the context ends.
			tk, err := s.SubmitAsync(sc.ctx, leakyJob("leaky", leak, outsider, sc.stop))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tk.Wait(context.Background()); (err != nil) != sc.wantErr {
				t.Fatalf("leaky job: err = %v", err)
			}
			close(leak)
			close(outsider)

			// The free lists turn over: every later job takes the scratch an
			// earlier one put back, the leaky job's included.
			tks := make([]*Ticket, 192)
			for i := range tks {
				if tks[i], err = s.SubmitAsync(context.Background(), wideJob(fmt.Sprintf("later%d", i), 4)); err != nil {
					t.Fatal(err)
				}
			}
			// 128 have settled, and the rest still run, when the leaked handles
			// are used.
			const settledFirst = 128
			for _, tk := range tks[:settledFirst] {
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				n := 0
				for h := range leak {
					n++
					for method, err := range everyMethod(h) {
						if !errors.Is(err, region.ErrFreed) && !errors.Is(err, region.ErrStaleHandle) && !errors.Is(err, region.ErrNotOwner) {
							t.Errorf("leaked handle %d of %s: %s: %v", n, h.Owner(), method, err)
						}
					}
				}
				if n < 6 {
					t.Errorf("%d handles leaked, want the six of one attempt at least", n)
				}
				for h := range outsider {
					buf := make([]byte, 64)
					if _, err := h.ReadAt(0, 0, buf); err != nil {
						t.Errorf("the outsider's share: read: %v", err)
					}
					if _, err := h.WriteAt(0, 64, buf); err != nil {
						t.Errorf("the outsider's share: write: %v", err)
					}
					if err := h.Release(); err != nil {
						t.Errorf("the outsider's share: release: %v", err)
					}
				}
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("a leaked handle blocked: in a fence on a dispatcher that is not its run's anymore?")
			}
			for _, tk := range tks[settledFirst:] {
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if live := s.Runtime().Regions().Live(); live != 0 {
				t.Errorf("%d regions live after everything was released", live)
			}
		})
	}
}

// everyMethod calls every method of a handle that can fail and returns the
// errors by method name.
func everyMethod(h *region.Handle) map[string]error {
	buf := make([]byte, 8)
	errs := make(map[string]error)
	_, errs["Size"] = h.Size()
	_, errs["DeviceID"] = h.DeviceID()
	_, errs["Class"] = h.Class()
	_, errs["Sealed"] = h.Sealed()
	_, errs["ReadAt"] = h.ReadAt(0, 0, buf)
	_, errs["WriteAt"] = h.WriteAt(0, 0, buf)
	_, errs["ReadAtRandom"] = h.ReadAtRandom(0, 0, buf)
	_, errs["ReadAsync"] = h.ReadAsync(0, 0, buf).Await(0)
	_, errs["WriteAsync"] = h.WriteAsync(0, 0, buf).Await(0)
	errs["Hydrate"] = h.Hydrate(0, buf)
	_, _, errs["Transfer"] = h.Transfer(0, "thief", "node0/cpu0")
	_, errs["Share"] = h.Share("thief", "node0/cpu0")
	_, errs["ShareRanked"] = h.ShareRanked("thief", "node0/cpu0", 3)
	errs["Release"] = h.Release()
	return errs
}

// TestScratchFreeListBounded: the runtime's free list keeps what a served job
// needs next and no more than scratchFreeBytes of it — a scratch whose tables
// alone are past the bound leaves nothing behind, many middling ones stop at
// the bound, many small ones at scratchFreeMax entries — and taking the
// entries back leaves the count at zero.
func TestScratchFreeListBounded(t *testing.T) {
	rt, err := New(ExecConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A job's scratch comes back, counted at what its tables hold, and serves
	// the next job.
	for i := 0; i < 3; i++ {
		if _, err := rt.Run(wideJob(fmt.Sprintf("bounded%d", i), 8)); err != nil {
			t.Fatal(err)
		}
		if len(rt.free) != 1 || rt.freeBytes <= 0 || rt.freeBytes != rt.free[0].footprint() {
			t.Fatalf("after job %d: %d entries counted at %d bytes", i, len(rt.free), rt.freeBytes)
		}
	}
	rt.getScratch()
	if len(rt.free) != 0 || rt.freeBytes != 0 {
		t.Fatalf("emptied list has %d entries, %d bytes", len(rt.free), rt.freeBytes)
	}

	const ptr = 8
	// Each of the three tables that grow with the job, past the bound alone.
	for name, sc := range map[string]*scratch{
		"handles (a dense graph)":         {handles: make([]*region.Handle, scratchFreeBytes/ptr+1)},
		"events (a body that allocates)":  {events: make([]memEvent, 0, scratchFreeBytes/64)},
		"slots (a wide graph)":            {w: wavefront{slots: make([]slot, scratchFreeBytes/32)}},
		"claim queues (a wide graph too)": {w: wavefront{devs: wideLedgers(8, scratchFreeBytes/ptr+1)}},
	} {
		rt.putScratch(sc)
		if len(rt.free) != 0 || rt.freeBytes != 0 {
			t.Errorf("%s past the bound left %d entries, %d bytes behind", name, len(rt.free), rt.freeBytes)
			rt.free, rt.freeBytes = nil, 0
		}
	}
	// Middling ones: the bytes bound cuts in before the entry bound.
	for i := 0; i < 2*scratchFreeMax; i++ {
		rt.putScratch(&scratch{handles: make([]*region.Handle, scratchFreeBytes/ptr/8)})
	}
	if n := len(rt.free); n == 0 || n >= scratchFreeMax || rt.freeBytes > scratchFreeBytes {
		t.Errorf("middling scratches: %d entries, %d bytes kept, want some, fewer than %d and at most %d bytes",
			n, rt.freeBytes, scratchFreeMax, scratchFreeBytes)
	}
	for len(rt.free) > 0 {
		rt.getScratch()
	}
	if rt.freeBytes != 0 {
		t.Errorf("emptied list still counts %d bytes", rt.freeBytes)
	}
	// Small ones: the entry bound.
	for i := 0; i < 2*scratchFreeMax; i++ {
		rt.putScratch(&scratch{handles: make([]*region.Handle, 16)})
	}
	if len(rt.free) != scratchFreeMax || rt.freeBytes != scratchFreeMax*16*ptr {
		t.Errorf("small scratches: %d entries, %d bytes kept, want %d and %d",
			len(rt.free), rt.freeBytes, scratchFreeMax, scratchFreeMax*16*ptr)
	}
}

// wideLedgers returns n claim ledgers with ranks enqueued among them.
func wideLedgers(n, ranks int) []sched.ClaimLedger {
	devs := make([]sched.ClaimLedger, n)
	for k := 0; k < ranks; k++ {
		devs[k%n].Enqueue(k)
	}
	return devs
}

// TestKeptTicketHoldsNoJob: the ticket is a piece of the server's state for
// its submission, and a submitter may keep it as long as it likes — once the
// outcome is in it, it holds the report and nothing else of the job: not the
// job, nor through the recycled scratch or the pool its run.
func TestKeptTicketHoldsNoJob(t *testing.T) {
	s, err := NewServer(ServerConfig{ExecConfig: ExecConfig{Workers: 2}, EpochWorkers: 1, QueueDepth: 8, Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background()) //nolint:errcheck
	collected := make(chan struct{})
	submit := func() *Ticket {
		job := wideJob("kept", 4)
		goruntime.SetFinalizer(job, func(*dataflow.Job) { close(collected) })
		tk, err := s.SubmitAsync(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	tk := submit()
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		goruntime.GC()
		select {
		case <-collected:
			goruntime.KeepAlive(tk)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("a delivered ticket still keeps its job from the collector")
	goruntime.KeepAlive(tk)
}
