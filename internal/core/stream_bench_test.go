package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/workload"
)

// BenchmarkStreamServe serves the synthetic streaming workload end to end
// — source cut into windows, every window a job on the serving pool,
// in-order retirement — and reports windows/s at 1 vs 4 epoch workers.
// The first iteration of each sub-benchmark additionally asserts every
// per-window report is byte-identical to the solo single-worker run, so
// the committed baseline doubles as a determinism gate: throughput never
// buys back reproducibility. What bench-smoke gates is the exact half of
// that: solo-identical-windows/op, the windows of a stream that retire with
// the virtual watermark where the solo runs leave it — all of them, on any
// host. windows/s is wall-clock on a 2x run and is reported ungated.
func BenchmarkStreamServe(b *testing.B) {
	cfg := workload.StreamConfig{
		Windows: 8, WindowSize: 32, EventSize: 64, Keys: 16,
		Partitions: 2, MaxInFlight: 4,
	}
	// Solo Workers=1 references for the first-iteration equality assert.
	events := workload.StreamEvents(cfg)
	spec := workload.Stream(cfg)
	want := make([]string, cfg.Windows)
	wantMark := make([]time.Duration, cfg.Windows) // the watermark after window w retires
	for w := range want {
		job, err := spec.Instantiate(w, events[w*cfg.WindowSize:(w+1)*cfg.WindowSize])
		if err != nil {
			b.Fatal(err)
		}
		rt, err := New(ExecConfig{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Run(job)
		if err != nil {
			b.Fatal(err)
		}
		want[w] = rep.String()
		wantMark[w] = rep.Makespan
		if w > 0 {
			wantMark[w] += wantMark[w-1]
		}
	}

	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rt, err := New(ExecConfig{})
			if err != nil {
				b.Fatal(err)
			}
			s, err := NewServer(ServerConfig{
				Runtime: rt, EpochWorkers: workers, MaxBatch: 8, QueueDepth: 64, Block: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close(context.Background()) //nolint:errcheck
			b.ReportAllocs()
			b.ResetTimer()
			identical := 0
			for i := 0; i < b.N; i++ {
				tk, err := s.SubmitStream(context.Background(), workload.Stream(cfg))
				if err != nil {
					b.Fatal(err)
				}
				w, mark := 0, time.Duration(0)
				for rep := range tk.Reports() {
					if mark += rep.Makespan; w < cfg.Windows && mark == wantMark[w] {
						identical++
					}
					if i == 0 {
						if got := rep.String(); got != want[w] {
							b.Fatalf("EpochWorkers=%d window %d report diverges from solo single-worker run:\n--- solo ---\n%s--- served ---\n%s",
								workers, w, want[w], got)
						}
					}
					w++
				}
				<-tk.Done()
				if err := tk.Err(); err != nil {
					b.Fatal(err)
				}
				if w != cfg.Windows {
					b.Fatalf("retired %d windows, want %d", w, cfg.Windows)
				}
				if tk.Watermark() != mark {
					b.Fatalf("stream watermark %v, its windows' makespans sum to %v", tk.Watermark(), mark)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(identical)/float64(b.N), "solo-identical-windows/op")
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(cfg.Windows*b.N)/sec, "windows/s")
			}
		})
	}
}
