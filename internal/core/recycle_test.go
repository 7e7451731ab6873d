package core

// What recycling a job's dispatcher must not break: a drained wavefront is out
// of its pool before it can serve another job, and nothing a task body kept
// past its job ever reads state that has been handed on.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/topology"
)

// settledBatchReports is the hash of TestSettledMembersLeaveThePool's eight
// reports with their recovery accounting.
const settledBatchReports = 0xcd664bab8851fe1d

// TestSettledMembersLeaveThePool: a batch of eight jobs that each need three
// attempts never has more than eight wavefronts in its pool — a drained
// attempt leaves before its retry joins — and the ladder's reports are the
// bytes they were when every attempt stayed a member to the end of the batch,
// at one worker and at eight.
func TestSettledMembersLeaveThePool(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { settledMembersLeaveThePool(t, workers) })
	}
}

func settledMembersLeaveThePool(t *testing.T, workers int) {
	const batch, attempts = 8, 3
	inj := fault.NewInjector(1, 0, 1)
	for i := 0; i < batch; i++ {
		inj.Kill(fmt.Sprintf("victim%d", i), attempts-1)
	}
	s := newRecoveryServer(t, inj,
		RecoveryPolicy{MaxAttempts: attempts},
		ServerConfig{ExecConfig: ExecConfig{Workers: workers}, EpochWorkers: 1, MaxBatch: batch, QueueDepth: 2 * batch, Block: true})

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
		fmt.Fprintf(sum, "%s%d%d%d\n", rep, rep.Attempts, rep.SkippedTasks, rep.ReplayedTasks)
	}
	if w := widest.Load(); w > batch || w == 0 {
		t.Errorf("the pool held %d members at once, want 1..%d: settled attempts stayed attached", w, batch)
	}
	// Recorded from the same batch with zero retry delay, on a tree whose
	// settled attempts stayed members to the end of the batch.
	if got, want := sum.Sum64(), uint64(settledBatchReports); got != want {
		t.Errorf("reports hash to %#x, want %#x", got, want)
	}
}

// leakyJob is a job whose bodies send handles out through leak, for the test
// to use after the job has settled: the source's shared output and a scratch,
// a consumer's share of that output and its own exclusive output, and — the
// one handle that stays good — a share of the source's output that a consumer
// made for an owner nobody releases, fenced by the consumer's run. stop,
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
				// A clock of its own: the task's view is the scratch's, and
				// the next job resets it.
				extra.Rebind(c.run.rt.topo.NewTaskView(), c.rank, c.run)
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
// free lists, with 64 more going through them meanwhile, fail every method
// with the region layer's own errors — the regions were released with the run
// — and the one that is still good is served through a fence that finds its
// run over instead of waiting on the dispatcher, by then another job's. For a
// job that completed, one that was canceled mid-run, and one that failed and
// was retried; each at one worker and at eight.
func TestLeakedHandlesNeverReachRecycledState(t *testing.T) {
	for _, name := range []string{"completed", "canceled", "failed then retried"} {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { leakedHandlesNeverReachRecycledState(t, name, workers) })
			}
		})
	}
}

func leakedHandlesNeverReachRecycledState(t *testing.T, scenario string, workers int) {
	ctx, stop, wantErr := context.Background(), (func() error)(nil), false
	switch scenario {
	case "canceled":
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		stop, wantErr = func() error { cancel(); return nil }, true
	case "failed then retried":
		failOnce := true
		stop = func() error {
			if failOnce {
				failOnce = false
				return errors.New("join: first attempt fails")
			}
			return nil
		}
	}
	s := newRecoveryServer(t, nil, RecoveryPolicy{},
		ServerConfig{ExecConfig: ExecConfig{Workers: workers}, EpochWorkers: 2, MaxBatch: 8, QueueDepth: 256, Block: true})
	// Twice what the bodies send in one attempt: a retry runs them again.
	leak, outsider := make(chan *region.Handle, 16), make(chan *region.Handle, 4)
	// Wait for the job to settle, not for its context: a canceled one
	// is still being torn down when the context ends.
	tk, err := s.SubmitAsync(ctx, leakyJob("leaky", leak, outsider, stop))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); (err != nil) != wantErr {
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
}

// TestKeptHandleNeverWaitsOnALaterJob: a share a body made for an owner
// nobody releases outlives its job, fenced by the job's run at its task's
// rank. A later job takes the same scratch, so its task of that rank runs in
// the same context slot, and it is held at a barrier below that rank, so its
// frontier is behind. The kept share's read and write return without waiting
// on the later job: its fence finds its own run over. Fenced through its
// task's context slot, the share would wait on the later job's barrier.
func TestKeptHandleNeverWaitsOnALaterJob(t *testing.T) {
	rt, err := New(ExecConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	kept := make(chan *region.Handle, 1)
	early := dataflow.NewJob("early")
	early.Task("first", dataflow.Props{Ops: 1e5}, nil).Then(early.Task("keeper", dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
		g, err := ctx.Global("g", props.GlobalState, 256)
		if err != nil {
			return err
		}
		// An open share of the task's own: it inherits the task's rank and
		// the run as its fence, and gets a clock of its own, as the task's
		// view is the scratch's.
		sh, err := g.Share(region.Owner("early/outsider"), ctx.Compute())
		if err != nil {
			return err
		}
		c := ctx.(*taskCtx)
		sh.Rebind(c.run.rt.topo.NewTaskView(), c.rank, c.run)
		kept <- sh
		return nil
	}))
	if _, err := rt.Run(early); err != nil {
		t.Fatal(err)
	}
	sh := <-kept

	// The later job: rank 0 waits at a barrier until the test releases it,
	// and rank 1, in the keeper's slot, launches beside it.
	release, launched := make(chan struct{}), make(chan int, 1)
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	later := dataflow.NewJob("later")
	later.Task("barrier", dataflow.Props{Ops: 1e5}, func(dataflow.Ctx) error { <-release; return nil })
	later.Task("beside", dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
		launched <- ctx.(*taskCtx).rank
		return nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := rt.Run(later)
		done <- err
	}()
	defer func() {
		free()
		if err := <-done; err != nil {
			t.Error(err)
		}
		if err := sh.Release(); err != nil {
			t.Error(err)
		}
		if live := rt.Regions().Live(); live != 0 {
			t.Errorf("%d regions live after everything was released", live)
		}
	}()
	select {
	case k := <-launched:
		if k != 1 {
			t.Fatalf("the later job's second task has rank %d, want the keeper's, 1", k)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the later job's second task never launched beside its barrier")
	}

	accessed := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		_, err := sh.ReadAt(0, 0, buf)
		if err == nil {
			_, err = sh.WriteAt(0, 64, buf)
		}
		accessed <- err
	}()
	select {
	case err := <-accessed:
		if err != nil {
			t.Errorf("the kept share: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("the kept share's access waited on the later job's barrier: fenced through a recycled context slot?")
		free()
		<-accessed
	}
}

// TestRecycledSlotsHoldNothing: once a job with job globals, a fan-out,
// private scratch, logs, a body that edits the slice Inputs returned and a
// partial-replay retry has settled, after a wider job, the context slots in
// the scratch on the free list — its own and the wider job's beyond them — its
// globals list and its restore states hold no pointer but their slices' own
// storage: no run, task, device, view, handle, owner name, label or global of
// either job. And they kept that storage: the sink's spilled journal, the
// logging task's log buffer, the editor's input copy, the globals list and
// the partial replay's restore-state block are there for the next job. The
// edits reached no list the engine releases: a second Inputs call returns the
// original handles, and no region is left live.
func TestRecycledSlotsHoldNothing(t *testing.T) {
	inj := fault.NewInjector(1, 0, 1)
	inj.Kill("victim", 1)
	rt, err := New(ExecConfig{Workers: 4, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(wideJob("wider", 16)); err != nil {
		t.Fatal(err)
	}
	job := wideJob("settled", 8)
	job.Task("victim", dataflow.Props{Ops: 1e5}, nil)
	job.Task("logger", dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
		for i := 0; i < 3; i++ {
			ctx.Log("line %d", i)
		}
		return nil
	})
	editor := job.Task("editor", dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
		ins := ctx.Inputs()
		orig := slices.Clone(ins)
		ins[0], ins[1] = ins[1], nil
		_ = append(ins, orig...)
		if again := ctx.Inputs(); !slices.Equal(again, orig) {
			return fmt.Errorf("a second Inputs call returns %v, want %v", again, orig)
		}
		return nil
	})
	for _, id := range []string{"feed0", "feed1"} {
		job.Task(id, dataflow.Props{Ops: 1e5, OutputBytes: 256}, nil).Then(editor)
	}
	rep, err := rt.Run(job, RecoveryPolicy{MaxAttempts: 2, PartialReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 {
		t.Fatalf("the job took %d attempts, want 2", rep.Attempts)
	}
	if live := rt.Regions().Live(); live != 0 {
		t.Errorf("%d regions live after the job settled: an edited input list leaked or released twice?", live)
	}
	if rt.free.Len() != 1 {
		t.Fatalf("%d scratches on the free list, want the job's", rt.free.Len())
	}
	sc := rt.free.Get()
	slots := sc.ctxs[:cap(sc.ctxs)]
	if len(slots) <= job.Len() {
		t.Fatalf("%d context slots for %d tasks, want the wider job's more", len(slots), job.Len())
	}
	found := pointersIn(reflect.ValueOf(slots), "ctxs", nil)
	found = pointersIn(reflect.ValueOf(sc.globals), "globals", found)
	if found = pointersIn(reflect.ValueOf(sc.lazy[:cap(sc.lazy)]), "lazy", found); len(found) > 0 {
		t.Errorf("recycled context slots, globals and restore states hold %d pointers: %v", len(found), found)
	}
	pending := -1
	for k := range sc.lazy {
		if sc.lazy[k].pending {
			pending = k
			break
		}
	}
	if len(sc.lazy) != job.Len() || pending < 0 {
		t.Errorf("the scratch kept %d restore states for %d tasks, the first pending at %d: want the partial replay's block, in use",
			len(sc.lazy), job.Len(), pending)
	}
	var spilled, logged, copied bool
	for k := range slots {
		c := &slots[k]
		spilled = spilled || cap(c.events) > len(c.journal)
		logged = logged || cap(c.logEnds) >= 3
		copied = copied || cap(c.ins) >= 2
	}
	if !spilled || !logged || !copied || cap(sc.globals) == 0 {
		t.Errorf("the slots kept a spilled journal: %t, a log buffer: %t, an input copy: %t; the scratch a globals list: %t; want all",
			spilled, logged, copied, cap(sc.globals) > 0)
	}
	rt.putScratch(sc)
	checkReportLogsKept(t, rt, rep, len(slots))
}

// checkReportLogsKept checks that a settled report's log lines — the
// logger's, which ran on the retry, and the restored tasks' — are its own: a
// later job that logs in each of the runtime's width context slots, one line
// longer than any slot's buffer has held, leaves them as they were, and reads
// its own lines back whole.
func checkReportLogsKept(t *testing.T, rt *Runtime, rep *Report, width int) {
	t.Helper()
	want, restored := rep.String(), false
	for _, tr := range rep.Tasks {
		restored = restored || slices.Contains(tr.Logs, "restored from checkpoint")
	}
	if got, want := rep.Task("logger").Logs, []string{"line 0", "line 1", "line 2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("the logger logged %q, want %q", got, want)
	}
	if !restored {
		t.Fatal("the retry restored no task from its checkpoint")
	}
	held := 0
	sc := rt.free.Get()
	slots := sc.ctxs[:cap(sc.ctxs)]
	for k := range slots {
		held = max(held, cap(slots[k].logText))
	}
	rt.putScratch(sc)
	long := strings.Repeat("x", 2*held+1)
	next := dataflow.NewJob("next")
	for i := 0; i < width; i++ {
		next.Task(fmt.Sprintf("t%02d", i), dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
			ctx.Log("a later job's line")
			ctx.Log("%s", long)
			return nil
		})
	}
	later, err := rt.Run(next)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range later.Tasks {
		if len(tr.Logs) != 2 || tr.Logs[0] != "a later job's line" || tr.Logs[1] != long {
			t.Fatalf("the later job's %s logged %d lines, want its two, the second %d bytes", tr.Task, len(tr.Logs), len(long))
		}
	}
	if got := rep.String(); got != want {
		t.Errorf("the settled report reads\n%s\nafter a later job, want\n%s", got, want)
	}
}

// pointersIn appends the path of every non-nil pointer v holds to found,
// slice storage aside: a slice's elements are walked to its capacity instead.
// A non-empty string counts as the pointer to its bytes.
func pointersIn(v reflect.Value, path string, found []string) []string {
	switch v.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		if !v.IsNil() {
			found = append(found, path)
		}
	case reflect.String:
		if v.Len() > 0 {
			found = append(found, path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			found = pointersIn(v.Field(i), path+"."+v.Type().Field(i).Name, found)
		}
	case reflect.Slice:
		v = v.Slice3(0, v.Cap(), v.Cap())
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			found = pointersIn(v.Index(i), fmt.Sprintf("%s[%d]", path, i), found)
		}
	}
	return found
}

// everyMethod calls every method of a handle that can fail and returns the
// errors by method name.
func everyMethod(h *region.Handle) map[string]error {
	buf := make([]byte, 8)
	errs := make(map[string]error)
	_, errs["Size"] = h.Size()
	_, errs["DeviceID"] = h.DeviceID()
	_, errs["Facts"] = h.Facts()
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
// entries back leaves the count at zero; at one worker and at eight.
func TestScratchFreeListBounded(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { scratchFreeListBounded(t, workers) })
	}
}

func scratchFreeListBounded(t *testing.T, workers int) {
	rt, err := New(ExecConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	// A job's scratch comes back, counted at what its tables hold, and serves
	// the next job.
	for i := 0; i < 3; i++ {
		if _, err := rt.Run(wideJob(fmt.Sprintf("bounded%d", i), 8)); err != nil {
			t.Fatal(err)
		}
		if rt.free.Len() != 1 || rt.free.Held() <= 0 {
			t.Fatalf("after job %d: %d entries counted at %d bytes", i, rt.free.Len(), rt.free.Held())
		}
	}
	held := rt.free.Held()
	if sc := rt.free.Get(); sc.footprint() != held || len(sc.views) != 8+2 { // one view a task: src, 8 branches, sink
		t.Fatalf("the scratch was counted at %d bytes, holds %d, with %d views", held, sc.footprint(), len(sc.views))
	}
	if rt.free.Len() != 0 || rt.free.Held() != 0 {
		t.Fatalf("emptied list has %d entries, %d bytes", rt.free.Len(), rt.free.Held())
	}

	const ptr = 8
	// Each of the tables that grow with the job, past the bound alone.
	for name, sc := range map[string]*scratch{
		"handles (a dense graph)":         {handles: make([]*region.Handle, scratchFreeBytes/ptr+1)},
		"events (a body that allocates)":  {events: make([]memEvent, 0, scratchFreeBytes/unsafe.Sizeof(memEvent{})+1)},
		"slots (a wide graph)":            {w: wavefront{slots: make([]slot, scratchFreeBytes/unsafe.Sizeof(slot{})+1)}},
		"claim queues (a wide graph too)": {w: wavefront{devs: wideLedgers(8, scratchFreeBytes/ptr+1)}},
		"views (a wide graph's clocks)":   {views: make([]topology.TaskView, scratchFreeBytes/unsafe.Sizeof(topology.TaskView{})+1)},
		"contexts (a wide graph's tasks)": {ctxs: make([]taskCtx, scratchFreeBytes/unsafe.Sizeof(taskCtx{})+1)},
	} {
		rt.putScratch(sc)
		if rt.free.Len() != 0 || rt.free.Held() != 0 {
			t.Errorf("%s past the bound left %d entries, %d bytes behind", name, rt.free.Len(), rt.free.Held())
			for rt.free.Len() > 0 {
				rt.free.Get()
			}
		}
	}
	// Middling ones: the bytes bound cuts in before the entry bound.
	for i := 0; i < 2*scratchFreeMax; i++ {
		rt.putScratch(&scratch{handles: make([]*region.Handle, scratchFreeBytes/ptr/8)})
	}
	if n := rt.free.Len(); n == 0 || n >= scratchFreeMax || rt.free.Held() > scratchFreeBytes {
		t.Errorf("middling scratches: %d entries, %d bytes kept, want some, fewer than %d and at most %d bytes",
			n, rt.free.Held(), scratchFreeMax, scratchFreeBytes)
	}
	for rt.free.Len() > 0 {
		rt.free.Get()
	}
	if rt.free.Held() != 0 {
		t.Errorf("emptied list still counts %d bytes", rt.free.Held())
	}
	// Small ones: the entry bound.
	for i := 0; i < 2*scratchFreeMax; i++ {
		rt.putScratch(&scratch{handles: make([]*region.Handle, 16)})
	}
	if rt.free.Len() != scratchFreeMax || rt.free.Held() != scratchFreeMax*16*ptr {
		t.Errorf("small scratches: %d entries, %d bytes kept, want %d and %d",
			rt.free.Len(), rt.free.Held(), scratchFreeMax, scratchFreeMax*16*ptr)
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

// TestReportIndependentOfWhatRanBefore: a job's report is a function of the
// job, not of the runtime's history. One runtime first serves jobs of several
// widths — outputs handed over and fanned out, private scratch, Global State
// and Global Scratch, a job whose 16-input sink spills its journal and whose
// tasks label four regions and log, and a job whose sink fails once and is
// retried — so its free list holds views, tables, clocks and context slots
// those jobs left behind; then a probe job's report must deep-equal the
// probe's on a fresh runtime, at one worker and at eight.
// A view that kept a previous job's queue state, a table not cleared, a core
// clock not reset, or a context slot that kept stale events, placements or
// logs shows up here as a later start or finish, another peak, or a region or
// log line the probe never made.
func TestReportIndependentOfWhatRanBefore(t *testing.T) {
	probe := func(rt *Runtime) *Report {
		t.Helper()
		rep, err := rt.Run(wideJob("probe", 5))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, workers := range []int{1, 8} {
		inj := fault.NewInjector(1, 0, 1)
		inj.Kill("victim", 1)
		warm, err := New(ExecConfig{Workers: workers, Inject: inj})
		if err != nil {
			t.Fatal(err)
		}
		for i, width := range []int{16, 2, 9} {
			if _, err := warm.Run(wideJob(fmt.Sprintf("warm%d", i), width)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := warm.Run(labelledJob("labelled", 16)); err != nil {
			t.Fatal(err)
		}
		retried := wideJob("retried", 12)
		retried.Task("victim", dataflow.Props{Ops: 1e5}, nil)
		retried.Task("cache", dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
			h, err := ctx.Global("cache", props.GlobalScratch, 8<<10)
			if err != nil {
				return err
			}
			now, err := h.WriteAt(ctx.Now(), 0, make([]byte, 8<<10))
			ctx.Wait(now)
			return err
		})
		rep, err := warm.Run(retried, RecoveryPolicy{MaxAttempts: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Attempts != 2 {
			t.Fatalf("workers=%d: the retried job took %d attempts, want 2", workers, rep.Attempts)
		}
		fresh, err := New(ExecConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := probe(warm), probe(fresh); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: the probe after other jobs differs from the probe alone:\n%s\nwant\n%s", workers, got, want)
		}
	}
}

// labelledJob is a source fanned out to width branches that each label four
// regions — three private scratches and their output — and log a line, joined
// by a sink with width inputs, which journals more events than its slot holds
// inline.
func labelledJob(name string, width int) *dataflow.Job {
	j := dataflow.NewJob(name)
	src := j.Task("src", dataflow.Props{Ops: 1e5, OutputBytes: 4 << 10}, nil)
	sink := j.Task("sink", dataflow.Props{Ops: 1e5}, nil)
	for i := 0; i < width; i++ {
		b := j.Task(fmt.Sprintf("branch%02d", i), dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
			for _, label := range []string{"a", "b", "c"} {
				if _, err := ctx.Scratch(label, 1<<10); err != nil {
					return err
				}
			}
			if _, err := ctx.Output(512); err != nil {
				return err
			}
			ctx.Log("labelled four")
			return nil
		})
		src.Then(b)
		b.Then(sink)
	}
	return j
}
