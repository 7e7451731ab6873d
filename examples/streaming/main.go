// Streaming: the paper's streaming scenario served end to end, plus the
// fault-tolerance discussion (challenge 8(3)) made concrete.
//
// A clickstream is declared as a stream spec — source, tumbling windows,
// a per-window task graph — and submitted whole through the serving
// engine's SubmitStream. Windows retire in order as the virtual-time
// watermark advances; mid-stream we cancel the ticket (the simulated
// crash) and resubmit the same spec with the crashed ticket's ResumeID:
// the completed windows are skipped from their checkpointed retirement
// markers and the interrupted window resumes from its task snapshots
// (partial replay) instead of re-executing from scratch.
//
// The epilogue then checkpoints the stream's summary into *erasure-coded
// far memory* (the Carbink-style store), crashes a memory node, reads the
// checkpoint back through the degraded path, and recovers full redundancy
// — the ~1.5× overhead of RS(6,4) instead of replication's 3×.
//
// Run with: go run ./examples/streaming
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"log"

	"repro"
)

const (
	windows    = 6
	windowSize = 32
	eventBytes = 64
)

// spec declares the clickstream. Each call returns a fresh spec with a
// fresh source — sources are consumed in place, and the resumed run must
// replay the same events the crashed run saw.
func spec() repro.StreamSpec {
	events := make([]repro.StreamEvent, windows*windowSize)
	for i := range events {
		payload := make([]byte, eventBytes)
		binary.BigEndian.PutUint64(payload, uint64(i))
		events[i] = repro.StreamEvent{Key: uint64(i % 8), Payload: payload}
	}
	return repro.StreamSpec{
		Name:       "clickstream",
		Source:     repro.NewSliceSource(events),
		WindowSize: windowSize,
		Build: func(w repro.StreamWindow, j *repro.Job) error {
			ingest := j.Task("ingest", repro.TaskProps{
				Compute: repro.OnCPU, Ops: float64(len(w.Events)) * 50, OutputBytes: w.Bytes(),
			}, func(ctx repro.TaskCtx) error {
				recv, err := ctx.Scratch("recv-buffer", 4*eventBytes)
				if err != nil {
					return err
				}
				out, err := ctx.Output(w.Bytes())
				if err != nil {
					return err
				}
				var off int64
				for i, ev := range w.Events {
					now, err := recv.WriteAt(ctx.Now(), int64(i%4)*eventBytes, ev.Payload)
					if err != nil {
						return err
					}
					ctx.Wait(now)
					now, err = out.WriteAt(ctx.Now(), off, ev.Payload)
					if err != nil {
						return err
					}
					ctx.Wait(now)
					off += int64(len(ev.Payload))
				}
				ctx.Log("window %d: ingested %d events", w.Index, len(w.Events))
				return nil
			})
			fold := j.Task("fold", repro.TaskProps{
				Compute: repro.OnCPU, Ops: float64(len(w.Events)) * 120, OutputBytes: 8,
			}, func(ctx repro.TaskCtx) error {
				in := ctx.Inputs()[0]
				var sum uint64
				buf := make([]byte, eventBytes)
				for i := range w.Events {
					now, err := in.ReadAt(ctx.Now(), int64(i)*eventBytes, buf)
					if err != nil {
						return err
					}
					ctx.Wait(now)
					sum += binary.BigEndian.Uint64(buf)
				}
				out, err := ctx.Output(8)
				if err != nil {
					return err
				}
				res := make([]byte, 8)
				binary.BigEndian.PutUint64(res, sum)
				now, err := out.WriteAt(ctx.Now(), 0, res)
				if err != nil {
					return err
				}
				ctx.Wait(now)
				ctx.Log("window %d: folded %d events, sum %d", w.Index, len(w.Events), sum)
				return nil
			})
			ingest.Then(fold)
			return nil
		},
	}
}

func main() {
	// One serving stack with checkpointed recovery: stream windows snapshot
	// task outputs into replicated far memory, which is what makes the
	// mid-stream crash below recoverable.
	ckFabric := repro.NewFabric(repro.FabricConfig{})
	for i := 0; i < 3; i++ {
		if err := ckFabric.AddNode(fmt.Sprintf("ckmem%d", i), 1<<26); err != nil {
			log.Fatal(err)
		}
	}
	ckStore, err := repro.NewReplicatedStore(ckFabric, 2)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{
		EpochWorkers: 4, Block: true,
		Recovery: &repro.RecoveryPolicy{Checkpointer: repro.NewCheckpointer(ckStore), MaxAttempts: 3, PartialReplay: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Println("serving the clickstream, then crashing it mid-window:")
	tk, err := srv.SubmitStream(ctx, spec())
	if err != nil {
		log.Fatal(err)
	}
	for rep := range tk.Reports() {
		fmt.Printf("  %-22s makespan %12v\n", rep.Job, rep.Makespan)
		if tk.Windows() >= 2 {
			tk.Cancel() // the simulated crash: checkpoints survive
		}
	}
	<-tk.Done()
	fmt.Printf("crashed after %d windows (watermark %v)\n", tk.Windows(), tk.Watermark())

	fmt.Println("\nresuming from the last completed window:")
	rtk, err := srv.SubmitStream(ctx, spec(), repro.SubmitOptions{ResumeID: tk.ResumeID()})
	if err != nil {
		log.Fatal(err)
	}
	var restored int
	for rep := range rtk.Reports() {
		line := fmt.Sprintf("  %-22s makespan %12v", rep.Job, rep.Makespan)
		if rep.SkippedTasks > 0 {
			restored += rep.SkippedTasks
			line += fmt.Sprintf("  (%d task(s) restored from checkpoint)", rep.SkippedTasks)
		}
		fmt.Println(line)
	}
	<-rtk.Done()
	if err := rtk.Err(); err != nil {
		log.Fatal(err)
	}
	if rtk.SkippedWindows()+rtk.Windows() != windows {
		log.Fatalf("resume lost windows: %d skipped + %d retired != %d",
			rtk.SkippedWindows(), rtk.Windows(), windows)
	}
	fmt.Printf("resume skipped %d completed windows, restored %d task(s), final watermark %v\n",
		rtk.SkippedWindows(), restored, rtk.Watermark())
	if err := srv.Close(ctx); err != nil {
		log.Fatal(err)
	}

	// Checkpoint the stream's summary into fault-tolerant far memory.
	fmt.Println("\ncheckpointing the stream summary into erasure-coded far memory:")
	fabric := repro.NewFabric(repro.FabricConfig{})
	for i := 0; i < 6; i++ {
		if err := fabric.AddNode(fmt.Sprintf("memnode%d", i), 1<<24); err != nil {
			log.Fatal(err)
		}
	}
	store, err := repro.NewErasureStore(fabric, repro.ErasureConfig{Data: 4, Parity: 2, SpanSize: 8192})
	if err != nil {
		log.Fatal(err)
	}
	checkpoint := []byte(fmt.Sprintf("streaming checkpoint: watermark=%v windows=%d",
		rtk.Watermark(), rtk.SkippedWindows()+rtk.Windows()))
	id, putTime, err := store.Put(checkpoint)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := store.Flush(); err != nil {
		log.Fatal(err)
	}
	logical, physical := store.StoredBytes()
	fmt.Printf("  stored %d logical bytes as %d physical (%.2f× overhead) in %v\n",
		logical, physical, float64(physical)/float64(logical), putTime)

	fmt.Println("  crashing memnode0 ...")
	if err := fabric.Crash("memnode0"); err != nil {
		log.Fatal(err)
	}
	got, degradedTime, err := store.Get(id)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, checkpoint) {
		log.Fatal("checkpoint corrupted after crash!")
	}
	fmt.Printf("  degraded read reconstructed the checkpoint in %v\n", degradedTime)

	repaired, recTime, err := store.Recover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  recovery rebuilt %d shard(s) in %v — full redundancy restored\n", repaired, recTime)
	fmt.Println("✓ no data lost across the node crash")
}
