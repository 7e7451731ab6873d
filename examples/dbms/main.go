// DBMS: the Table 3 database row — a query pipeline
// (scan → filter → hash-aggregate → hash-join) whose operator state lives
// in Private Scratch, whose admission latch lives in Global State, and
// whose aggregation hash index is re-used by the join via Global Scratch.
//
// The example runs the same query twice: once with the runtime's cost-model
// placement optimizer and once with an adversarial "worst legal placement"
// — the paper's intro claim that naive placement costs up to 3× becomes
// directly observable.
//
// Run with: go run ./examples/dbms
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/region"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	cfg := workload.DBMSConfig{Rows: 8192, Groups: 128, Predicate: 3}

	run := func(name string, mk func(*topology.Topology) region.Placer) *core.Report {
		topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
		if err != nil {
			log.Fatal(err)
		}
		rt, err := core.New(core.ExecConfig{Topology: topo, Placer: mk(topo)})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := rt.Run(workload.DBMS(cfg))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s placement ===\n", name)
		fmt.Print(rep.String())
		fmt.Println()
		return rep
	}

	best := run("optimizer", func(t *topology.Topology) region.Placer { return placement.NewBestFit(t) })
	worst := run("naive (worst legal)", func(t *topology.Topology) region.Placer { return placement.NewWorst(t) })

	fmt.Printf("query makespan: optimizer %v vs naive %v — naive is %.1f× slower\n",
		best.Makespan, worst.Makespan, float64(worst.Makespan)/float64(best.Makespan))
	fmt.Println("\nthe hash-join re-used the aggregation's hash index from Global Scratch:")
	fmt.Printf("  agg-index lives on %s\n", best.Tasks["hash-aggregate"].Regions["agg-index"])
	for _, l := range best.Tasks["hash-join"].Logs {
		fmt.Println("  join:", l)
	}
}
