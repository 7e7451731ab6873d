package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
)

// The data-integrity property: on a random DAG, every task writes a
// payload derived from its identity into its output; every consumer
// verifies each input matches its producer's expected payload. Any bug in
// ownership transfer, sharing, migration, sealing, or buffering surfaces
// as a payload mismatch.

const integrityPayload = 96

func stampFor(task string) []byte {
	buf := make([]byte, integrityPayload)
	h := uint64(1469598103934665603)
	for _, c := range task {
		h ^= uint64(c)
		h *= 1099511628211
	}
	for i := 0; i < integrityPayload; i += 8 {
		h = h*6364136223846793005 + 1442695040888963407
		binary.BigEndian.PutUint64(buf[i:], h)
	}
	return buf
}

// buildIntegrityDAG creates a random DAG whose tasks stamp and verify.
func buildIntegrityDAG(t *testing.T, rng *rand.Rand, name string) *dataflow.Job {
	t.Helper()
	n := 3 + rng.Intn(10)
	j := dataflow.NewJob(name)
	tasks := make([]*dataflow.Task, n)
	prefs := []dataflow.DevicePref{dataflow.AnyDevice, dataflow.OnCPU, dataflow.OnGPU, dataflow.OnTPU}
	type edgeSet struct{ preds []string }
	edges := make([]edgeSet, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("t%02d", i)
		conf := rng.Intn(4) == 0
		mk := func(id string) dataflow.Fn {
			return func(ctx dataflow.Ctx) error {
				// Verify every input against its producer's stamp.
				ins := ctx.Inputs()
				if len(ins) != len(edges[indexOf(id)].preds) {
					return fmt.Errorf("%s: %d inputs, want %d", id, len(ins), len(edges[indexOf(id)].preds))
				}
				for k, in := range ins {
					want := stampFor(name + "/" + edges[indexOf(id)].preds[k])
					got := make([]byte, integrityPayload)
					f := in.ReadAsync(ctx.Now(), 0, got)
					now, err := f.Await(ctx.Now())
					if err != nil {
						return fmt.Errorf("%s reading input %d: %w", id, k, err)
					}
					ctx.Wait(now)
					for b := range want {
						if got[b] != want[b] {
							return fmt.Errorf("%s: input %d from %s corrupted at byte %d", id, k, edges[indexOf(id)].preds[k], b)
						}
					}
				}
				// Stamp the output.
				out, err := ctx.Output(integrityPayload)
				if err != nil {
					return err
				}
				f := out.WriteAsync(ctx.Now(), 0, stampFor(name+"/"+id))
				now, err := f.Await(ctx.Now())
				if err != nil {
					return err
				}
				ctx.Wait(now)
				return nil
			}
		}
		tasks[i] = j.Task(id, dataflow.Props{
			Compute:      prefs[rng.Intn(len(prefs))],
			Confidential: conf,
			Ops:          float64(1+rng.Intn(100)) * 1e4,
			OutputBytes:  integrityPayload,
		}, mk(id))
	}
	// Forward edges only (acyclic by construction).
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			if rng.Intn(3) == 0 {
				tasks[i].Then(tasks[k])
				edges[k].preds = append(edges[k].preds, tasks[i].ID())
			}
		}
	}
	return j
}

// indexOf extracts the numeric suffix of "tNN".
func indexOf(id string) int {
	return int(id[1]-'0')*10 + int(id[2]-'0')
}

func TestRandomDAGDataIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt, err := New(ExecConfig{})
		if err != nil {
			return false
		}
		job := buildIntegrityDAG(t, rng, fmt.Sprintf("integ-%d", seed))
		if _, err := rt.Run(job); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return rt.Regions().Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRandomDAGIntegrityUnderRecovery(t *testing.T) {
	// The same integrity property with a checkpointer in the loop and a
	// mid-DAG failure on the first attempt: restored outputs must carry
	// the exact stamps.
	rng := rand.New(rand.NewSource(99))
	rt := newRuntime(t)
	ck, _ := newCkStore(t)
	job := buildIntegrityDAG(t, rng, "integ-recover")
	// Inject one failure into the last task by wrapping... instead, build a
	// dedicated flaky verifier appended to the DAG.
	fails := 1
	sinks := job.Sinks()
	probe := job.Task("probe", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		if fails > 0 {
			fails--
			return fmt.Errorf("injected failure")
		}
		for k, in := range ctx.Inputs() {
			got := make([]byte, integrityPayload)
			f := in.ReadAsync(ctx.Now(), 0, got)
			now, err := f.Await(ctx.Now())
			if err != nil {
				return err
			}
			ctx.Wait(now)
			want := stampFor("integ-recover/" + sinks[k].ID())
			for b := range want {
				if got[b] != want[b] {
					return fmt.Errorf("restored input %d corrupted at byte %d", k, b)
				}
			}
		}
		return nil
	})
	for _, s := range sinks {
		s.Then(probe)
	}
	rep, err := rt.Run(job, RecoveryPolicy{Checkpointer: ck})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", rep.Attempts)
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}
