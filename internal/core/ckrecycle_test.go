package core

// Tests for what recycling a checkpoint's buffers and resolving its namespace
// once could break: a snapshot another submission's Forget reaches, a staging
// buffer handed back while the store or a region still reads it, a
// placeholder that shows its previous user's bytes, a free list that grows
// without bound.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// newReplicatedCk is a checkpointer over the serving default's store shape,
// with the store in hand so a test can ask what is left in it.
func newReplicatedCk(t testing.TB) (*Checkpointer, *fault.ReplicatedStore) {
	t.Helper()
	f := cluster.NewFabric(cluster.Config{})
	for i := 0; i < 3; i++ {
		if err := f.AddNode(fmt.Sprintf("ckmem%d", i), 1<<26); err != nil {
			t.Fatal(err)
		}
	}
	store, err := fault.NewReplicatedStore(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	return NewCheckpointer(store), store
}

// TestForgetDoesNotCrossNamespaces: a job may be named anything, so one
// submission's run ID can be a string prefix of another's ("x@1" and
// "x@1/y@2"), and a namespace plus a task can spell the same path two ways
// ("a" + "b/c", "a/b" + "c"). Neither may let one submission's Forget, or
// its snapshot of a like-named task, reach the other's entries.
func TestForgetDoesNotCrossNamespaces(t *testing.T) {
	ck, store := newReplicatedCk(t)
	put := func(id, task, payload string) {
		t.Helper()
		if _, err := ck.open(id).snapshot(task, []byte(payload), true, false); err != nil {
			t.Fatal(err)
		}
	}
	want := func(id, task, payload string) {
		t.Helper()
		data, _, _, err := ck.open(id).restore(task)
		if err != nil || string(data) != payload {
			t.Errorf("restore(%q, %q) = %q, %v; want %q", id, task, data, err, payload)
		}
		ck.putBuf(data)
	}

	first := ck.NewRunID("x")           // x@1
	second := ck.NewRunID(first + "/y") // x@1/y@2: carries the prefix "x@1/"
	put(first, "t/0@a", "first's")
	put(second, "t/0@a", "second's")
	put("a", "b/c", "a's b/c")
	put("a/b", "c", "a/b's c")
	want("a", "b/c", "a's b/c")
	want("a/b", "c", "a/b's c")

	ck.Forget(first)
	if _, ok := ck.open(second).lookup("t/0@a"); !ok {
		t.Fatalf("Forget(%q) dropped a snapshot of %q", first, second)
	}
	want(second, "t/0@a", "second's")
	if _, ok := ck.open(first).lookup("t/0@a"); ok {
		t.Errorf("Forget(%q) left its own snapshot", first)
	}
	ck.Forget("a")
	want("a/b", "c", "a/b's c")
	for _, id := range []string{first, second, "a/b"} {
		ck.Forget(id)
	}

	// Same-named submissions in flight together: each sees its own bytes
	// whatever the others snapshot and forget meanwhile.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ns := ck.open(ck.NewRunID("same/name@0"))
				mine := []byte(fmt.Sprintf("worker %d round %d", w, i))
				for _, task := range []string{"t", "t/u", "t@1"} {
					if _, err := ns.snapshot(task, mine, true, false); err != nil {
						t.Error(err)
						return
					}
				}
				for _, task := range []string{"t", "t/u", "t@1"} {
					data, _, _, err := ns.restore(task)
					if err != nil || !bytes.Equal(data, mine) {
						t.Errorf("worker %d restored %q, %v; want %q", w, data, err, mine)
					}
					ck.putBuf(data)
				}
				ck.Forget(ns.id)
			}
		}(w)
	}
	wg.Wait()
	if got := ck.Snapshots(); got != 0 {
		t.Errorf("%d snapshots left, want 0", got)
	}
	if logical, physical := store.StoredBytes(); logical != 0 || physical != 0 {
		t.Errorf("store holds %d/%d bytes after every namespace was forgotten", logical, physical)
	}
}

// TestSnapshotIntoForgottenNamespaceStoresNothing: a run that still holds a
// namespace its owner has forgotten leaves nothing behind in the store.
func TestSnapshotIntoForgottenNamespaceStoresNothing(t *testing.T) {
	ck, store := newReplicatedCk(t)
	ns := ck.open("gone@1")
	ck.Forget(ns.id)
	if _, err := ns.snapshot("late", []byte("after the forget"), true, false); err != nil {
		t.Fatal(err)
	}
	ns.record("late", 1)
	ns.drop("late")
	if _, ok := ns.lookup("late"); ok {
		t.Error("a forgotten namespace took an entry")
	}
	if logical, _ := store.StoredBytes(); logical != 0 || ck.Snapshots() != 0 {
		t.Errorf("store holds %d bytes, checkpointer %d entries; want 0, 0", logical, ck.Snapshots())
	}
}

// TestCheckpointerStagingConcurrent drives the checkpointer the way
// checkpointTask and hydrate do — stage in a recycled buffer, snapshot, hand
// the buffer back at once; restore into a recycled buffer, compare, hand it
// back — from many goroutines with distinct random payloads, over the
// replicated and the erasure store. A buffer returned while anyone still read
// it comes back as another goroutine's bytes.
func TestCheckpointerStagingConcurrent(t *testing.T) {
	for name, mk := range map[string]func(testing.TB) *Checkpointer{
		"replicated": func(t testing.TB) *Checkpointer { ck, _ := newReplicatedCk(t); return ck },
		"erasure":    func(t testing.TB) *Checkpointer { ck, _ := newCkStore(t); return ck },
	} {
		t.Run(name, func(t *testing.T) {
			ck := mk(t)
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for round := 0; round < 30; round++ {
						ns := ck.open(ck.NewRunID("staging"))
						want := map[string][]byte{}
						for k := 0; k < 4; k++ {
							task := fmt.Sprintf("t%d", k)
							stage := ck.getBuf(int64(1+rng.Intn(12<<10)), false)
							rng.Read(stage)
							want[task] = append([]byte(nil), stage...)
							_, err := ns.snapshot(task, stage, true, false)
							ck.putBuf(stage)
							if err != nil {
								t.Error(err)
								return
							}
						}
						for task, w := range want {
							data, _, _, err := ns.restore(task)
							if err != nil || !bytes.Equal(data, w) {
								t.Errorf("restore(%s) returned %d bytes, %v; want the %d staged", task, len(data), err, len(w))
							}
							ck.putBuf(data)
						}
						ck.Forget(ns.id)
					}
				}(w)
			}
			wg.Wait()
			if got := ck.Snapshots(); got != 0 {
				t.Errorf("%d snapshots left", got)
			}
		})
	}
}

// TestCheckpointerBufferBound: whatever is handed back, the checkpointer
// keeps at most ckBufBytes of it.
func TestCheckpointerBufferBound(t *testing.T) {
	ck, _ := newReplicatedCk(t)
	var held [][]byte
	for i := 0; i < 3000; i++ {
		held = append(held, ck.getBuf(int64(1+(i*131)%(40<<10)), false))
	}
	peak := int64(0)
	for _, b := range held {
		ck.putBuf(b)
		peak = max(peak, ck.bufs.Held())
	}
	if peak > ckBufBytes || peak < ckBufBytes/2 {
		t.Errorf("free list peaked at %d bytes; the bound is %d and the burst should have reached it", peak, ckBufBytes)
	}
}

// verifyPayload is what task `task` of submission `seed` writes: random
// bytes of a random size, so sizes differ within and across buffer classes.
func verifyPayload(seed int64, task string) []byte {
	h := seed
	for _, c := range task {
		h = h*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(h))
	data := make([]byte, 1+rng.Intn(12<<10))
	rng.Read(data)
	return data
}

// verifyJob is width chains of depth stages into one sink. Every stage writes
// its verifyPayload, and every consumer — each later stage, and the sink for
// every chain — reads its whole input and compares it with what the producer
// wrote. A mismatch is counted in bad besides failing the task: the retry
// would restore the right bytes from the store and hide it.
func verifyJob(seed int64, width, depth int, bad *atomic.Int64) *dataflow.Job {
	j := dataflow.NewJob(fmt.Sprintf("verify%d", seed))
	check := func(ctx dataflow.Ctx, i int, producer string) error {
		want := verifyPayload(seed, producer)
		got := make([]byte, len(want))
		now, err := ctx.Inputs()[i].ReadAt(ctx.Now(), 0, got)
		if err != nil {
			return err
		}
		ctx.Wait(now)
		if size, _ := ctx.Inputs()[i].Size(); size != int64(len(want)) || !bytes.Equal(got, want) {
			bad.Add(1)
			return fmt.Errorf("input from %s: %d bytes that are not the %d it wrote", producer, size, len(want))
		}
		return nil
	}
	tails := make([]string, width)
	sink := j.Task("sink", dataflow.Props{Ops: 1e4}, func(ctx dataflow.Ctx) error {
		for c, producer := range tails {
			if err := check(ctx, c, producer); err != nil {
				return err
			}
		}
		return nil
	})
	for c := 0; c < width; c++ {
		var prev *dataflow.Task
		for s := 0; s < depth; s++ {
			name, producer := fmt.Sprintf("c%ds%d", c, s), tails[c]
			t := j.Task(name, dataflow.Props{Ops: 1e4}, func(ctx dataflow.Ctx) error {
				if producer != "" {
					if err := check(ctx, 0, producer); err != nil {
						return err
					}
				}
				data := verifyPayload(seed, name)
				out, err := ctx.Output(int64(len(data)))
				if err != nil {
					return err
				}
				now, err := out.WriteAsync(ctx.Now(), 0, data).Await(ctx.Now())
				if err != nil {
					return err
				}
				ctx.Wait(now)
				return nil
			})
			if prev != nil {
				prev.Then(t)
			}
			prev, tails[c] = t, name
		}
		prev.Then(sink)
	}
	return j
}

// TestRecoveryDeliversExactPayloadsConcurrently serves many verifyJobs at
// once with a fifth of the task sites failing once, so retries restore
// checkpointed outputs — eagerly under full replay, through the zeroed
// placeholder and hydrate under partial replay — while other jobs' tasks
// stage, snapshot and forget through the same free lists. Every consumer
// must read exactly what its producer wrote, for both replay modes and both
// stores.
func TestRecoveryDeliversExactPayloadsConcurrently(t *testing.T) {
	for _, store := range []string{"replicated", "erasure"} {
		for _, partial := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/partial=%v", store, partial), func(t *testing.T) {
				var ck *Checkpointer
				if store == "erasure" {
					ck, _ = newCkStore(t)
				} else {
					ck, _ = newReplicatedCk(t)
				}
				s, err := NewServer(ServerConfig{
					ExecConfig:   ExecConfig{Workers: 4, Inject: fault.NewInjector(3, 0.2, 1)},
					EpochWorkers: 4, MaxBatch: 8, QueueDepth: 64, Block: true,
					Recovery: &RecoveryPolicy{Checkpointer: ck, MaxAttempts: 12, PartialReplay: partial},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close(context.Background()) //nolint:errcheck
				var bad atomic.Int64
				const jobs = 48
				tks := make([]*Ticket, jobs)
				for i := range tks {
					if tks[i], err = s.SubmitAsync(context.Background(), verifyJob(int64(i), 3, 3, &bad)); err != nil {
						t.Fatal(err)
					}
				}
				retried := 0
				for i, tk := range tks {
					rep, err := tk.Wait(context.Background())
					if err != nil {
						t.Errorf("job %d: %v", i, err)
						continue
					}
					if rep.Attempts > 1 {
						retried++
					}
				}
				if n := bad.Load(); n != 0 {
					t.Errorf("%d consumers read bytes their producer did not write", n)
				}
				tel := s.Runtime().Telemetry()
				if retried == 0 || tel.Counter(telemetry.LayerFault, "restores") == 0 {
					t.Fatalf("%d jobs retried, %d restores: the test exercised nothing", retried, tel.Counter(telemetry.LayerFault, "restores"))
				}
				if partial && tel.Counter(telemetry.LayerFault, "lazy_hydrations") == 0 {
					t.Error("partial replay hydrated nothing: the placeholder path went unexercised")
				}
				if got := ck.Snapshots(); got != 0 {
					t.Errorf("%d snapshots left after every job settled", got)
				}
				if live := s.Runtime().Regions().Live(); live != 0 {
					t.Errorf("leaked %d regions", live)
				}
				if held := ck.bufs.Held(); held > ckBufBytes {
					t.Errorf("checkpointer keeps %d buffer bytes, bound is %d", held, ckBufBytes)
				}
			})
		}
	}
}
