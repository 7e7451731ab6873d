// Hospital: the paper's running example (Figure 2) as a runnable program.
//
// A CCTV stream is preprocessed and face-recognized on the GPU; the
// sightings fan out to three CPU tasks: working-hour tracking, a public
// utilization feed, and caregiver alerting whose missing-patient ledger is
// declared *persistent* — watch the runtime place it on persistent media
// without the code ever naming PMem.
//
// Run with: go run ./examples/hospital
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		log.Fatal(err)
	}
	cfg := workload.HospitalConfig{Frames: 64, FrameSize: 32 << 10, People: 512}
	report, err := rt.Run(workload.Hospital(cfg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.String())

	fmt.Println("\nFigure 2 property annotations, as honoured by the runtime:")
	checks := []struct {
		task, region, want string
	}{
		{"preprocess", "framebuf", "GPU-local scratch (GDDR)"},
		{"face-recognition", "directory", "shared, coherent (Global Scratch)"},
		{"track-hours", "hours", "shared, coherent+sync (Global State)"},
		{"alert-caregivers", "missing-patients", "persistent media"},
	}
	for _, c := range checks {
		dev := report.Task(c.task).Region(c.region)
		fmt.Printf("  %-18s %-18s → %-16s (%s)\n", c.task, c.region, dev, c.want)
	}
	ledger := report.Task("alert-caregivers").Region("missing-patients")
	if m, ok := rt.Topology().Memory(ledger); ok && m.Persistent {
		fmt.Println("\n✓ the missing-patient ledger survives a crash: placed on", ledger)
	} else {
		fmt.Println("\n✗ persistence property violated!")
	}
}
