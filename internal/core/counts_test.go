package core

// A task counts its accesses in its own clock view and the wavefront
// publishes the view when the task retires. These tests pin what that must
// not change: the counts themselves, at any pool size, and the moment they
// become visible — a delivered ticket's accesses are all in the counters.
// The expected numbers were captured on the commit before the change, where
// every access added to the shared counters itself.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// accessCounts is every count the access path keeps: the devices' own,
// summed over the topology, and the region layer's byte counters.
type accessCounts struct {
	reads, writes            uint64
	devRead, devWritten      uint64
	bytesRead, bytesWritten  int64
	fetches, invals, wbacks  int64
	transfers, shares, frees int64
}

func readCounts(rt *Runtime) accessCounts {
	var c accessCounts
	for _, dev := range rt.Topology().Memories() {
		s := dev.Stats()
		c.reads += s.Reads
		c.writes += s.Writes
		c.devRead += s.BytesRead
		c.devWritten += s.BytesWritten
	}
	tel := rt.Telemetry()
	c.bytesRead = tel.Counter(telemetry.LayerRegion, "bytes_read")
	c.bytesWritten = tel.Counter(telemetry.LayerRegion, "bytes_written")
	c.fetches = tel.Counter(telemetry.LayerCoherence, "fetches")
	c.invals = tel.Counter(telemetry.LayerCoherence, "invalidations")
	c.wbacks = tel.Counter(telemetry.LayerCoherence, "writebacks")
	c.transfers = tel.Counter(telemetry.LayerRegion, "transfers_zero_copy") + tel.Counter(telemetry.LayerRegion, "transfers_migrated")
	c.shares = tel.Counter(telemetry.LayerRegion, "shares")
	c.frees = tel.Counter(telemetry.LayerRegion, "frees")
	return c
}

// countServer is a one-epoch-worker server on a fresh runtime.
func countServer(t *testing.T, cfg ExecConfig, rec *RecoveryPolicy) (*Runtime, *Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Runtime: rt, EpochWorkers: 1, MaxBatch: 8, QueueDepth: 64, Block: true, Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck
	return rt, s
}

// TestAccessCountsExactAndVisibleAtDelivery serves a fixed mix of real-body
// jobs one at a time and reads every counter the moment each ticket is
// delivered: the running totals are the same at every pool size, and the
// same as before the counts moved into the views.
func TestAccessCountsExactAndVisibleAtDelivery(t *testing.T) {
	mix := func() []*dataflow.Job {
		return []*dataflow.Job{
			workload.Graph(workload.DefaultGraph()),
			workload.DBMS(workload.DefaultDBMS()),
			wideJob("wide", 6),
			workload.Hospital(workload.DefaultHospital()),
			workload.Graph(workload.GraphConfig{Vertices: 200, AvgDegree: 3, Seed: 11}),
		}
	}
	want := []accessCounts{
		{reads: 3293, writes: 522, devRead: 15220, devWritten: 15292, bytesRead: 15220, bytesWritten: 15292, fetches: 1, transfers: 2, shares: 1, frees: 5},
		{reads: 13238, writes: 10150, devRead: 110044, devWritten: 106308, bytesRead: 110044, bytesWritten: 106308, fetches: 50, transfers: 5, shares: 4, frees: 12},
		{reads: 13256, writes: 10180, devRead: 116620, devWritten: 204660, bytesRead: 116620, bytesWritten: 204660, fetches: 67, transfers: 11, shares: 16, frees: 26},
		{reads: 13417, writes: 10572, devRead: 641936, devWritten: 1255814, bytesRead: 641936, bytesWritten: 1255814, fetches: 125, transfers: 12, shares: 21, frees: 33},
		{reads: 14512, writes: 10782, devRead: 647116, devWritten: 1261066, bytesRead: 647116, bytesWritten: 1261066, fetches: 126, transfers: 14, shares: 22, frees: 38},
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			rt, s := countServer(t, ExecConfig{Workers: workers}, nil)
			for k, j := range mix() {
				if _, err := s.Submit(context.Background(), j); err != nil {
					t.Fatal(err)
				}
				if got := readCounts(rt); got != want[k] {
					t.Errorf("after job %d (%s):\n got %+v\nwant %+v", k, j.Name(), got, want[k])
				}
			}
		})
	}
}

// touch makes n 64-byte accesses to h, alternating writes and reads, and
// advances the task's clock past each.
func touch(ctx dataflow.Ctx, h *region.Handle, n int) error {
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		op := h.WriteAt
		if i%2 == 1 {
			op = h.ReadAt
		}
		now, err := op(ctx.Now(), int64(i%16)*64, buf)
		if err != nil {
			return err
		}
		ctx.Wait(now)
	}
	return nil
}

// scratchTouch is a task body that makes n accesses to a scratch region and
// then runs after, if any.
func scratchTouch(n int, after func(ctx dataflow.Ctx) error) dataflow.Fn {
	return func(ctx dataflow.Ctx) error {
		h, err := ctx.Scratch("s", 1<<10)
		if err != nil {
			return err
		}
		if err := touch(ctx, h, n); err != nil {
			return err
		}
		if after != nil {
			return after(ctx)
		}
		return nil
	}
}

// TestAccessCountsPublishedOncePerTask: however a task leaves the wavefront
// — its body fails half way, its submission is cancelled under it, a mate's
// failure aborts it at a fence, a retry restores it from its checkpoint — the
// accesses it made are in the counters exactly once by the time the ticket
// is delivered, and recycling its view afterwards adds nothing.
func TestAccessCountsPublishedOncePerTask(t *testing.T) {
	errBody := errors.New("body gave up")
	out := dataflow.Props{Ops: 1e4, OutputBytes: 256}

	t.Run("fails mid-body", func(t *testing.T) {
		rt, s := countServer(t, ExecConfig{Workers: 1}, nil)
		j := dataflow.NewJob("fails")
		a := j.Task("a", out, scratchTouch(10, nil))
		b := j.Task("b", out, scratchTouch(7, func(dataflow.Ctx) error { return errBody }))
		c := j.Task("c", dataflow.Props{Ops: 1e4}, scratchTouch(100, nil))
		a.Then(b)
		b.Then(c)
		if _, err := s.Submit(context.Background(), j); !errors.Is(err, errBody) {
			t.Fatalf("submit = %v, want the body's error", err)
		}
		want := accessCounts{reads: 8, writes: 9, devRead: 512, devWritten: 576, bytesRead: 512, bytesWritten: 576, transfers: 1, frees: 3}
		if got := readCounts(rt); got != want {
			t.Errorf("\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		rt, s := countServer(t, ExecConfig{Workers: 1}, nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		j := dataflow.NewJob("cancelled")
		a := j.Task("a", out, scratchTouch(5, func(c dataflow.Ctx) error {
			cancel() // the rest of this body still runs; nothing after it does
			h, err := c.Scratch("late", 1<<10)
			if err != nil {
				return err
			}
			return touch(c, h, 4)
		}))
		a.Then(j.Task("b", dataflow.Props{Ops: 1e4}, scratchTouch(100, nil)))
		tk, err := s.SubmitAsync(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		// Wait for the delivery itself: a wait under ctx would return at the
		// cancellation, with the task still in its body.
		if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("ticket = %v, want cancellation", err)
		}
		want := accessCounts{reads: 4, writes: 5, devRead: 256, devWritten: 320, bytesRead: 256, bytesWritten: 320, frees: 3}
		if got := readCounts(rt); got != want {
			t.Errorf("\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("aborted at a fence", func(t *testing.T) {
		// Two source tasks on two workers. The higher rank touches its scratch,
		// says so, and asks for a job global, whose first use fences on every
		// lower rank; the lower rank waits for that, touches, and fails. The
		// fence aborts the higher rank, whose accesses count all the same.
		rt, s := countServer(t, ExecConfig{Workers: 2}, nil)
		atFence := make(chan struct{})
		j := dataflow.NewJob("aborted")
		j.Task("low", dataflow.Props{Ops: 1e4}, func(ctx dataflow.Ctx) error {
			<-atFence
			return scratchTouch(6, func(dataflow.Ctx) error { return errBody })(ctx)
		})
		j.Task("high", dataflow.Props{Ops: 1e4}, scratchTouch(9, func(ctx dataflow.Ctx) error {
			close(atFence)
			_, err := ctx.Global("g", props.GlobalState, 1<<10)
			return err
		}))
		if _, err := s.Submit(context.Background(), j); !errors.Is(err, errBody) {
			t.Fatalf("submit = %v, want the lower rank's error", err)
		}
		want := accessCounts{reads: 7, writes: 8, devRead: 448, devWritten: 512, bytesRead: 448, bytesWritten: 512, frees: 2}
		if got := readCounts(rt); got != want {
			t.Errorf("\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("restored from a checkpoint", func(t *testing.T) {
		inj := fault.NewInjector(1, 0, 1)
		inj.Kill("b", 1)
		rt, s := countServer(t, ExecConfig{Workers: 1, Inject: inj}, &RecoveryPolicy{MaxAttempts: 3})
		j := dataflow.NewJob("restored")
		a := j.Task("a", out, scratchTouch(10, func(ctx dataflow.Ctx) error {
			h, err := ctx.Output(256)
			if err != nil {
				return err
			}
			return touch(ctx, h, 3)
		}))
		a.Then(j.Task("b", dataflow.Props{Ops: 1e4}, func(ctx dataflow.Ctx) error {
			if err := touch(ctx, ctx.Inputs()[0], 2); err != nil {
				return err
			}
			return scratchTouch(5, nil)(ctx)
		}))
		if _, err := s.Submit(context.Background(), j); err != nil {
			t.Fatal(err)
		}
		if inj.Injected() != 1 {
			t.Fatalf("%d faults injected, want the one retry", inj.Injected())
		}
		want := accessCounts{reads: 10, writes: 12, devRead: 832, devWritten: 960, bytesRead: 832, bytesWritten: 960, transfers: 1, frees: 4}
		if got := readCounts(rt); got != want {
			t.Errorf("\n got %+v\nwant %+v", got, want)
		}
	})
}
