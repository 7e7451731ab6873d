package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
)

// Example demonstrates the programming model end to end: declare a
// two-task dataflow, let the runtime place and schedule it, and observe
// the ownership handover.
func Example() {
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		log.Fatal(err)
	}
	job := dataflow.NewJob("example")
	produce := job.Task("produce", dataflow.Props{Ops: 1e6}, func(ctx dataflow.Ctx) error {
		out, err := ctx.Output(64)
		if err != nil {
			return err
		}
		now, err := out.WriteAt(ctx.Now(), 0, []byte("hi"))
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return nil
	})
	consume := job.Task("consume", dataflow.Props{Ops: 1e6}, func(ctx dataflow.Ctx) error {
		buf := make([]byte, 2)
		now, err := ctx.Inputs()[0].ReadAt(ctx.Now(), 0, buf)
		if err != nil {
			return err
		}
		ctx.Wait(now)
		ctx.Log("got %s", buf)
		return nil
	})
	produce.Then(consume)

	report, err := rt.Run(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Task("consume").Logs[0])
	fmt.Println("regions leaked:", rt.Regions().Live())
	// Output:
	// got hi
	// regions leaked: 0
}

// Example_declarativeProperties shows properties steering placement: the
// persistent task's ledger lands on persistent media without the code
// naming a device.
func Example_declarativeProperties() {
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		log.Fatal(err)
	}
	job := dataflow.NewJob("props")
	job.Task("ledger-keeper", dataflow.Props{
		Compute: dataflow.OnCPU, Persistent: true, Ops: 1e3,
	}, func(ctx dataflow.Ctx) error {
		ledger, err := ctx.Scratch("ledger", 4096)
		if err != nil {
			return err
		}
		dev, _ := ledger.DeviceID()
		m, _ := rt.Topology().Memory(dev)
		ctx.Log("ledger on %s (persistent: %t)", dev, m.Persistent)
		return nil
	})
	report, err := rt.Run(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Task("ledger-keeper").Logs[0])
	// Output:
	// ledger on node0/pmem0 (persistent: true)
}

// Example_globalRegions shows Table 2's shared regions: two tasks
// coordinate through a named Global State region.
func Example_globalRegions() {
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		log.Fatal(err)
	}
	job := dataflow.NewJob("globals")
	writer := job.Task("writer", dataflow.Props{Ops: 1e3, OutputBytes: 8}, func(ctx dataflow.Ctx) error {
		state, err := ctx.Global("flag", props.GlobalState, 64)
		if err != nil {
			return err
		}
		now, err := state.WriteAt(ctx.Now(), 0, []byte{42})
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return nil
	})
	reader := job.Task("reader", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		state, err := ctx.Global("flag", props.GlobalState, 64)
		if err != nil {
			return err
		}
		buf := make([]byte, 1)
		now, err := state.ReadAt(ctx.Now(), 0, buf)
		if err != nil {
			return err
		}
		ctx.Wait(now)
		ctx.Log("flag=%d", buf[0])
		return nil
	})
	writer.Then(reader)
	report, err := rt.Run(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Task("reader").Logs[0])
	// Output:
	// flag=42
}
