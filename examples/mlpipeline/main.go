// ML pipeline: the Table 3 ML/AI row — a Cachew-style input pipeline.
// CPU tasks ingest and preprocess samples into a shared Global Scratch
// cache; a TPU training task streams the cache asynchronously (prefetching
// the next sample while computing gradients on the current one) and keeps
// its weights in accelerator-local Private Scratch.
//
// The run ends with the cross-layer telemetry profile — the paper's
// challenge 8(1) answer: even though the runtime hides placement, you can
// still see which abstraction layer your time went to.
//
// Run with: go run ./examples/mlpipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	tel := telemetry.NewRegistry()
	rt, err := core.New(core.ExecConfig{Telemetry: tel})
	if err != nil {
		log.Fatal(err)
	}
	cfg := workload.MLConfig{Samples: 256, SampleSize: 1024, Features: 128, Epochs: 3}
	report, err := rt.Run(workload.ML(cfg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.String())

	fmt.Println("\nplacements the pipeline never had to spell out:")
	fmt.Printf("  sample cache (Global Scratch) → %s\n", report.Tasks["preprocess"].Regions["sample-cache"])
	fmt.Printf("  worker state (Global State)   → %s\n", report.Tasks["preprocess"].Regions["worker-state"])
	fmt.Printf("  model weights (Priv. Scratch) → %s\n", report.Tasks["train"].Regions["weights"])
	fmt.Printf("  trained model (final output)  → %s\n", report.FinalOutputs["train"])

	fmt.Println("\ncross-layer profile (challenge 8(1)):")
	fmt.Print(tel.Report())
}
