package main

// Stream serve mode (-stream): the synthetic streaming workload is
// submitted whole through Server.SubmitStream and executed window by
// window on the serving pool, retiring per-window reports in order while
// the watermark advances in virtual time. With -recover and
// -crashwindow N, the stream is canceled after N retired windows — the
// simulated crash — and resubmitted with the crashed ticket's ResumeID:
// the completed windows are skipped from their retirement markers and the
// interrupted window partial-replays its checkpointed prefix.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// serveStream drives one stream (and, with -crashwindow, its resumed
// successor) through the serving engine.
func serveStream(rt *core.Runtime, o *options) error {
	if o.crashWindow >= 0 && !o.recover {
		return fmt.Errorf("-crashwindow requires -recover (resume restores from checkpoints)")
	}
	tel := rt.Telemetry()
	cfg := serverConfig(o)
	cfg.Runtime = rt
	srv, err := core.NewServer(cfg)
	if err != nil {
		return err
	}
	defer srv.Close(context.Background()) //nolint:errcheck

	wcfg := workload.DefaultStream()
	wcfg.Windows = o.windows
	ctx := context.Background()

	tk, err := srv.SubmitStream(ctx, workload.Stream(wcfg))
	if err != nil {
		return err
	}
	if o.crashWindow == 0 {
		tk.Cancel()
	}
	for rep := range tk.Reports() {
		printWindow(rep)
		if o.crashWindow > 0 && tk.Windows() >= o.crashWindow {
			tk.Cancel()
		}
	}
	<-tk.Done()
	if o.crashWindow < 0 {
		if err := tk.Err(); err != nil {
			return err
		}
		fmt.Printf("stream drained: %d windows, watermark %v\n", tk.Windows(), tk.Watermark())
		return nil
	}
	fmt.Printf("crashed stream after %d windows (watermark %v): %v\n",
		tk.Windows(), tk.Watermark(), tk.Err())

	// Resume: same spec, fresh source, the crashed ticket's namespace.
	rtk, err := srv.SubmitStream(ctx, workload.Stream(wcfg), core.SubmitOptions{ResumeID: tk.ResumeID()})
	if err != nil {
		return err
	}
	for rep := range rtk.Reports() {
		printWindow(rep)
	}
	<-rtk.Done()
	if err := rtk.Err(); err != nil {
		return err
	}
	fmt.Printf("resumed stream: skipped %d completed windows, retired %d more, final watermark %v\n",
		rtk.SkippedWindows(), rtk.Windows(), rtk.Watermark())
	fmt.Printf("stream windows served: %d, restores %d\n",
		tel.Counter(telemetry.LayerRuntime, "server_stream_windows"),
		tel.Counter(telemetry.LayerFault, "restores"))
	return nil
}

// printWindow renders one retired window's report line.
func printWindow(rep *core.Report) {
	line := fmt.Sprintf("  %-20s makespan %12v", rep.Job, rep.Makespan)
	if rep.SkippedTasks > 0 {
		line += fmt.Sprintf("  (resumed: %d task(s) restored)", rep.SkippedTasks)
	}
	fmt.Println(line)
}
