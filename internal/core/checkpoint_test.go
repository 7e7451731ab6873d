package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

func newCkStore(t testing.TB) (*Checkpointer, *cluster.Fabric) {
	t.Helper()
	fabric := cluster.NewFabric(cluster.Config{})
	for i := 0; i < 8; i++ {
		if err := fabric.AddNode(fmt.Sprintf("ckmem%d", i), 1<<24); err != nil {
			t.Fatal(err)
		}
	}
	store, err := fault.NewErasureStore(fabric, fault.ErasureConfig{Data: 4, Parity: 2, SpanSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return NewCheckpointer(&ckWithAutoFlush{ErasureStore: store}), fabric
}

// ckWithAutoFlush seals spans on every Put so snapshots are immediately
// durable (a real deployment would group-commit; tests want determinism).
// Put and its Flush are one step under mu: two tasks checkpointing at once
// would otherwise stage both objects before either seals, and the first
// Flush would be charged for both while the second paid nothing — a
// restore price that depends on wall-clock interleaving.
type ckWithAutoFlush struct {
	*fault.ErasureStore
	mu sync.Mutex
}

func (s *ckWithAutoFlush) Put(data []byte) (fault.ObjectID, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, d, err := s.ErasureStore.Put(data)
	if err != nil {
		return id, d, err
	}
	d2, err := s.ErasureStore.Flush()
	return id, d + d2, err
}

// flakyJob builds a 3-task chain whose middle task fails the first
// `failures` executions; counters observe re-execution.
func flakyJob(failures int, execCounts map[string]*int) *dataflow.Job {
	return flakyJobHook(failures, execCounts, nil)
}

// flakyJobHook is flakyJob with onFail called inside each failing execution,
// before the failure is returned: the point between two attempts.
func flakyJobHook(failures int, execCounts map[string]*int, onFail func()) *dataflow.Job {
	j := dataflow.NewJob("flaky")
	remaining := failures
	count := func(id string) {
		if execCounts != nil {
			(*execCounts[id])++
		}
	}
	a := j.Task("produce", dataflow.Props{Ops: 1e4}, func(ctx dataflow.Ctx) error {
		count("produce")
		out, err := ctx.Output(64)
		if err != nil {
			return err
		}
		f := out.WriteAsync(ctx.Now(), 0, []byte("precious intermediate"))
		now, err := f.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return nil
	})
	b := j.Task("transform", dataflow.Props{Ops: 1e4}, func(ctx dataflow.Ctx) error {
		count("transform")
		if remaining > 0 {
			remaining--
			if onFail != nil {
				onFail()
			}
			return errors.New("transient failure")
		}
		in := ctx.Inputs()[0]
		buf := make([]byte, 21)
		f := in.ReadAsync(ctx.Now(), 0, buf)
		now, err := f.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		out, err := ctx.Output(64)
		if err != nil {
			return err
		}
		fw := out.WriteAsync(ctx.Now(), 0, bytes.ToUpper(buf))
		now, err = fw.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return nil
	})
	c := j.Task("consume", dataflow.Props{Ops: 1e4}, func(ctx dataflow.Ctx) error {
		count("consume")
		in := ctx.Inputs()[0]
		buf := make([]byte, 21)
		f := in.ReadAsync(ctx.Now(), 0, buf)
		now, err := f.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		ctx.Log("final: %s", buf)
		return nil
	})
	a.Then(b)
	b.Then(c)
	return j
}

func TestRecoverySkipsCheckpointedTasks(t *testing.T) {
	rt := newRuntime(t)
	ck, _ := newCkStore(t)
	counts := map[string]*int{"produce": new(int), "transform": new(int), "consume": new(int)}
	job := flakyJob(1, counts)
	rep, err := rt.Run(job, RecoveryPolicy{Checkpointer: ck})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", rep.Attempts)
	}
	// The producer ran once: its second "execution" was a restore.
	if *counts["produce"] != 1 {
		t.Errorf("produce executed %d times, want 1 (checkpoint must skip re-execution)", *counts["produce"])
	}
	if *counts["transform"] != 2 { // failed once, then succeeded
		t.Errorf("transform executed %d times, want 2", *counts["transform"])
	}
	if *counts["consume"] != 1 {
		t.Errorf("consume executed %d times, want 1", *counts["consume"])
	}
	// The data flowed through the restore intact.
	var final string
	for _, l := range rep.Task("consume").Logs {
		if strings.Contains(l, "final:") {
			final = l
		}
	}
	if !strings.Contains(final, "PRECIOUS INTERMEDIATE") {
		t.Errorf("restored pipeline produced %q", final)
	}
	// The restore is visible in the report.
	restored := false
	for _, l := range rep.Task("produce").Logs {
		if strings.Contains(l, "restored from checkpoint") {
			restored = true
		}
	}
	if !restored {
		t.Error("produce must be marked restored on the successful attempt")
	}
	// Snapshots are garbage-collected on success.
	if ck.Snapshots() != 0 {
		t.Errorf("snapshots after success = %d, want 0", ck.Snapshots())
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}

func TestRecoveryExhaustsAttempts(t *testing.T) {
	rt := newRuntime(t)
	ck, _ := newCkStore(t)
	job := flakyJob(99, nil) // never succeeds
	_, err := rt.Run(job, RecoveryPolicy{Checkpointer: ck, MaxAttempts: 3})
	if err == nil {
		t.Fatal("permanently failing job must error")
	}
	if got := rt.Telemetry().Counter(telemetry.LayerFault, "job_retries"); got != 2 {
		t.Errorf("job_retries = %d, want 2 (three attempts)", got)
	}
	if ck.Snapshots() != 0 {
		t.Errorf("snapshots after terminal failure = %d, want 0", ck.Snapshots())
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error must mention attempts: %v", err)
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}

func TestRecoverySurvivesStorageNodeCrash(t *testing.T) {
	// A memory node holding checkpoint shards crashes between attempts;
	// erasure coding must still restore the snapshot.
	rt := newRuntime(t)
	ck, fabric := newCkStore(t)
	counts := map[string]*int{"produce": new(int), "transform": new(int), "consume": new(int)}
	// The node dies inside the failing execution — after produce's snapshot
	// was written, before the retry reads it back.
	job := flakyJobHook(1, counts, func() {
		if err := fabric.Crash("ckmem0"); err != nil {
			t.Error(err)
		}
	})
	rep, err := rt.Run(job, RecoveryPolicy{Checkpointer: ck})
	if err != nil {
		t.Fatalf("retry with crashed checkpoint node: %v", err)
	}
	if rep.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", rep.Attempts)
	}
	if *counts["produce"] != 1 {
		t.Errorf("produce re-executed despite degraded checkpoint read")
	}
	var final string
	for _, l := range rep.Task("consume").Logs {
		final += l
	}
	if !strings.Contains(final, "PRECIOUS INTERMEDIATE") {
		t.Errorf("degraded restore corrupted data: %q", final)
	}
}

func TestRunRecoveryValidation(t *testing.T) {
	rt := newRuntime(t)
	if _, err := rt.Run(flakyJob(0, nil), RecoveryPolicy{}, RecoveryPolicy{}); err == nil {
		t.Error("two policies must fail")
	}
	// The zero policy is complete: default store, three attempts.
	rep, err := rt.Run(flakyJob(2, nil), RecoveryPolicy{})
	if err != nil || rep.Attempts != 3 {
		t.Errorf("zero policy: attempts=%v err=%v, want 3 attempts", rep, err)
	}
}

func TestRecoveryNoFailureSingleAttempt(t *testing.T) {
	rt := newRuntime(t)
	ck, _ := newCkStore(t)
	rep, err := rt.Run(flakyJob(0, nil), RecoveryPolicy{Checkpointer: ck})
	if err != nil || rep.Attempts != 1 {
		t.Fatalf("clean job: report=%+v err=%v", rep, err)
	}
	if rep.Makespan <= 0 {
		t.Error("makespan must be positive")
	}
}
