package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/props"
	"repro/internal/region"
)

// The data-integrity property: on a random program, every task writes a
// payload derived from the seed and its identity into its output; every
// consumer verifies each input matches its producer's expected payload, and
// every user of a job global finds it zero (its creator) or carrying the
// global's payload. Any bug in ownership transfer, sharing, migration,
// sealing, zeroing or buffering surfaces as a payload mismatch.

const integrityPayload = 96

// stampFor returns size bytes derived from key alone.
func stampFor(key string, size int) []byte {
	buf := make([]byte, (size+7)/8*8)
	h := uint64(1469598103934665603)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	for i := 0; i < len(buf); i += 8 {
		h = h*6364136223846793005 + 1442695040888963407
		binary.BigEndian.PutUint64(buf[i:], h)
	}
	return buf[:size]
}

// integrityProgram is a random job whose tasks stamp and verify.
type integrityProgram struct {
	job *dataflow.Job
	// salt is the seed's share of every payload: stamp(task,
	// integrityPayload) is the bytes the task's output carries, stamp(gN,
	// size) the bytes global gN's creator writes.
	salt    uint64
	globals int // job globals g0, g1, ...; each has exactly one creator
}

func (p *integrityProgram) stamp(key string, size int) []byte {
	return stampFor(fmt.Sprintf("%s/%x/%s", p.job.Name(), p.salt, key), size)
}

// creators checks that every job global was created by exactly one task: the
// lowest-ranked of its users, the only one that found it zero.
func (p *integrityProgram) creators(rep *Report) error {
	n := 0
	for _, tr := range rep.Tasks {
		for _, l := range tr.Logs {
			if strings.HasSuffix(l, " created") {
				n++
			}
		}
	}
	if n != p.globals {
		return fmt.Errorf("%d job globals, %d creators", p.globals, n)
	}
	return nil
}

// buildIntegrityDAG creates a random program from rng. The seed decides all
// of it: the DAG's width and depth, each task's compute preference and
// confidentiality, the payload bytes, and which of these shapes it holds:
//   - random forward edges, so an output with one successor is transferred
//     (migrated when the successor cannot address it) and one with several
//     is shared with each, ranked (the fan-out);
//   - at least one fan-out of two or more;
//   - a transfer chain: 2–4 tasks appended, each the only successor of the
//     one before, the first fed by a random task;
//   - up to two job globals, each used by 2–4 random tasks at whatever ranks
//     the schedule gives them. The first user in rank order creates it, finds
//     it zero, writes its payload and logs "gN created"; every later user
//     must find that payload, and logs "gN found";
//   - up to three formatted log lines a task, of lengths that vary with the
//     task and the line, through the context slot's recycled log buffer.
//
// Every body calls Inputs twice: it reverses the first slice, which is the
// context's, and verifies its inputs through the second, which must list them
// in predecessor order again.
func buildIntegrityDAG(t *testing.T, rng *rand.Rand, name string) *integrityProgram {
	t.Helper()
	n := 3 + rng.Intn(10)
	chain := 2 + rng.Intn(3)
	j := dataflow.NewJob(name)
	p := &integrityProgram{job: j, salt: rng.Uint64(), globals: rng.Intn(3)}
	tasks := make([]*dataflow.Task, n+chain)
	prefs := []dataflow.DevicePref{dataflow.AnyDevice, dataflow.OnCPU, dataflow.OnGPU, dataflow.OnTPU}
	preds := make([][]string, len(tasks))
	// uses[i] lists the globals task i uses, with each global's class and size.
	type global struct {
		name  string
		class props.RegionClass
		size  int64
	}
	uses := make([][]global, len(tasks))
	for g := 0; g < p.globals; g++ {
		gl := global{fmt.Sprint("g", g), props.GlobalState, int64(64 * (1 + rng.Intn(4)))}
		if rng.Intn(2) == 0 {
			gl.class = props.GlobalScratch
		}
		for _, i := range rng.Perm(len(tasks))[:2+rng.Intn(3)] {
			uses[i] = append(uses[i], gl)
		}
	}
	read := func(ctx dataflow.Ctx, h *region.Handle, buf []byte) error {
		now, err := h.ReadAsync(ctx.Now(), 0, buf).Await(ctx.Now())
		ctx.Wait(now)
		return err
	}
	for i := range tasks {
		id := fmt.Sprintf("t%02d", i)
		lines := rng.Intn(4)
		body := func(ctx dataflow.Ctx) error {
			// Verify every input against its producer's stamp, through a
			// second Inputs call after scrambling the first's slice.
			ins := ctx.Inputs()
			if len(ins) != len(preds[i]) {
				return fmt.Errorf("%s: %d inputs, want %d", id, len(ins), len(preds[i]))
			}
			slices.Reverse(ins)
			ins = ctx.Inputs()
			for l := 0; l < lines; l++ {
				ctx.Log("%s line %d of %d: %s", id, l+1, lines, strings.Repeat("~", (i+l)%5*8))
			}
			got := make([]byte, integrityPayload)
			for k, in := range ins {
				if err := read(ctx, in, got); err != nil {
					return fmt.Errorf("%s reading input %d: %w", id, k, err)
				}
				if !bytes.Equal(got, p.stamp(preds[i][k], integrityPayload)) {
					return fmt.Errorf("%s: input %d from %s corrupted", id, k, preds[i][k])
				}
			}
			// Create or check every global the task uses.
			for _, gl := range uses[i] {
				h, err := ctx.Global(gl.name, gl.class, gl.size)
				if err != nil {
					return err
				}
				buf := make([]byte, gl.size)
				if err := read(ctx, h, buf); err != nil {
					return fmt.Errorf("%s reading %s: %w", id, gl.name, err)
				}
				want := p.stamp(gl.name, int(gl.size))
				switch {
				case bytes.Equal(buf, want):
					ctx.Log("%s found", gl.name)
				case bytes.Equal(buf, make([]byte, gl.size)):
					now, err := h.WriteAsync(ctx.Now(), 0, want).Await(ctx.Now())
					if err != nil {
						return err
					}
					ctx.Wait(now)
					ctx.Log("%s created", gl.name)
				default:
					return fmt.Errorf("%s: %s is neither zero nor its payload", id, gl.name)
				}
			}
			// Stamp the output.
			out, err := ctx.Output(integrityPayload)
			if err != nil {
				return err
			}
			now, err := out.WriteAsync(ctx.Now(), 0, p.stamp(id, integrityPayload)).Await(ctx.Now())
			ctx.Wait(now)
			return err
		}
		tasks[i] = j.Task(id, dataflow.Props{
			Compute:      prefs[rng.Intn(len(prefs))],
			Confidential: rng.Intn(4) == 0,
			Ops:          float64(1+rng.Intn(100)) * 1e4,
			OutputBytes:  integrityPayload,
		}, body)
	}
	edge := func(from, to int) {
		for _, id := range preds[to] {
			if id == tasks[from].ID() {
				return
			}
		}
		tasks[from].Then(tasks[to])
		preds[to] = append(preds[to], tasks[from].ID())
	}
	// Forward edges only (acyclic by construction), one fan-out at least.
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			if rng.Intn(3) == 0 {
				edge(i, k)
			}
		}
	}
	fan := rng.Intn(n - 2)
	edge(fan, fan+1+rng.Intn(n-fan-2))
	edge(fan, n-1)
	// The transfer chain, fed by any task of the DAG above.
	edge(rng.Intn(n), n)
	for i := n; i < n+chain-1; i++ {
		edge(i, i+1)
	}
	return p
}

func TestRandomDAGDataIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt, err := New(ExecConfig{})
		if err != nil {
			return false
		}
		p := buildIntegrityDAG(t, rng, fmt.Sprintf("integ-%d", seed))
		rep, err := rt.Run(p.job)
		if err == nil {
			err = p.creators(rep)
		}
		if err != nil {
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
	p := buildIntegrityDAG(t, rng, "integ-recover")
	job := p.job
	// Inject one failure into the last task by wrapping... instead, build a
	// dedicated flaky verifier appended to the DAG.
	fails := 1
	g, err := job.Graph()
	if err != nil {
		t.Fatal(err)
	}
	var sinks []*dataflow.Task
	for k, task := range g.Order {
		if len(g.Succs(k)) == 0 {
			sinks = append(sinks, task)
		}
	}
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
			want := p.stamp(sinks[k].ID(), integrityPayload)
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

// errWarmerFailed is the failure of failingWarmer's second task.
var errWarmerFailed = errors.New("warmer failed on purpose")

// failingWarmer is a job that fails halfway: its first task hands an output
// to the second, which reads it and fails, so the job leaves by the failure
// path — its regions released, its clock views merged nowhere.
func failingWarmer(name string) *dataflow.Job {
	j := dataflow.NewJob(name)
	produce := j.Task("produce", dataflow.Props{Ops: 1e5, OutputBytes: 4 << 10}, nil)
	fail := j.Task("fail", dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
		now, err := ctx.Inputs()[0].ReadAt(ctx.Now(), 0, make([]byte, 1<<10))
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return errWarmerFailed
	})
	produce.Then(fail)
	return j
}

// integrityBudget is how many random programs TestRandomProgramRelations
// checks, and how many other programs warm a runtime before each: a few
// seconds of make test, less under -short, more under the race detector.
func integrityBudget() (seeds, warmers int) {
	switch {
	case testing.Short():
		return 30, 3
	case raceBuild:
		return 240, 6
	}
	return 200, 4
}

// relationFaultRate is the share of task sites the relations' injector fails
// once each, and relationPolicy what recovers them: a program fails at most
// once per site, so it settles in fewer attempts than it has tasks.
const relationFaultRate = 0.3

var relationPolicy = RecoveryPolicy{MaxAttempts: 64}

// TestRandomProgramRelations checks three relations a report must satisfy, on
// random programs, each as one assertion on Report.String() bytes: a report
// depends on the program and nothing else, faults a seeded injector places
// and their recovery included —
//   - (i) not on what the runtime ran before: a fresh Runtime and one warmed
//     by other random programs report the same, and so do a fresh server and
//     one whose only epoch worker served those programs first, one batch
//     each, so that one worker's pool and batch slices carried every batch
//     before. In both doors one warmer fails halfway;
//   - (ii) not on how a server is deployed: every program of a seed,
//     submitted together to a server of two epoch workers, eight task
//     workers and batches of eight, reports what it reports from a server of
//     one and one;
//   - (iv) not on how a retry restores: the first program recovers with
//     eager replay and with lazy (partial) replay to the same report, after
//     the same attempts, with the same tasks skipped and replayed.
//
// Relation (v), across shard counts, is TestRandomProgramShardCounts in
// package core_test, which can import the cluster. A failure names the seed,
// which rebuilds every program of the case.
func TestRandomProgramRelations(t *testing.T) {
	seeds, others := integrityBudget()
	retried := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		inj := fault.NewInjector(uint64(seed), relationFaultRate, 1)
		exec := ExecConfig{Inject: inj}
		progs := make([]*integrityProgram, 1+others)
		for i := range progs {
			progs[i] = buildIntegrityDAG(t, rng, fmt.Sprintf("rel-%d-%d", seed, i))
		}
		// The warmers are the other programs and, at a place the seed picks
		// among them, one that fails halfway.
		failing := &integrityProgram{job: failingWarmer(fmt.Sprintf("rel-%d-fail", seed))}
		warmers := slices.Insert(slices.Clone(progs[1:]), rng.Intn(len(progs)), failing)
		// settle checks one program's outcome: the failing warmer fails, with
		// its own error, and every other reports its globals' creators.
		settle := func(p *integrityProgram, rep *Report, err error) {
			if p == failing {
				if !errors.Is(err, errWarmerFailed) {
					t.Fatalf("seed %d: %s: err = %v, want %v", seed, p.job.Name(), err, errWarmerFailed)
				}
				return
			}
			if err == nil {
				err = p.creators(rep)
			}
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, p.job.Name(), err)
			}
		}

		// (i) The first program on a fresh runtime, and after the others.
		newRT := func() *Runtime {
			rt, err := New(exec)
			if err != nil {
				t.Fatal(err)
			}
			return rt
		}
		run := func(rt *Runtime, p *integrityProgram) string {
			rep, err := rt.Run(p.job, relationPolicy)
			settle(p, rep, err)
			return rep.String()
		}
		fresh, warm := newRT(), newRT()
		for _, p := range warmers {
			rep, err := warm.Run(p.job, relationPolicy)
			settle(p, rep, err)
		}
		if got, want := run(warm, progs[0]), run(fresh, progs[0]); got != want {
			t.Errorf("seed %d: (i) a warmed runtime reports\n%s\na fresh one\n%s", seed, got, want)
		}

		// (i), served: the first program on a fresh server of one epoch worker
		// and batches of one, and on one whose worker served the others first.
		serveAfter := func(warmers []*integrityProgram) string {
			s, err := NewServer(ServerConfig{
				ExecConfig: exec, Recovery: &relationPolicy,
				EpochWorkers: 1, MaxBatch: 1, QueueDepth: len(warmers) + 1, Block: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close(context.Background()) //nolint:errcheck
			tickets := make([]*Ticket, len(warmers))
			for i, p := range warmers {
				if tickets[i], err = s.SubmitAsync(context.Background(), p.job); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, p.job.Name(), err)
				}
			}
			for i, tk := range tickets {
				rep, err := tk.Wait(context.Background())
				settle(warmers[i], rep, err)
			}
			rep, err := s.Submit(context.Background(), progs[0].job)
			settle(progs[0], rep, err)
			return rep.String()
		}
		if got, want := serveAfter(warmers), serveAfter(nil); got != want {
			t.Errorf("seed %d: (i) a warmed server reports\n%s\na fresh one\n%s", seed, got, want)
		}

		// (ii) Every program at once, on two deployments of a server.
		serve := func(cfg ServerConfig) string {
			cfg.Inject, cfg.Recovery, cfg.QueueDepth, cfg.Block = inj, &relationPolicy, len(progs), true
			s, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close(context.Background()) //nolint:errcheck
			tickets := make([]*Ticket, len(progs))
			for i, p := range progs {
				if tickets[i], err = s.SubmitAsync(context.Background(), p.job); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, p.job.Name(), err)
				}
			}
			var b strings.Builder
			for i, tk := range tickets {
				rep, err := tk.Wait(context.Background())
				if err == nil {
					err = progs[i].creators(rep)
				}
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, progs[i].job.Name(), err)
				}
				b.WriteString(rep.String())
			}
			return b.String()
		}
		wide := serve(ServerConfig{ExecConfig: ExecConfig{Workers: 8}, EpochWorkers: 2, MaxBatch: 8})
		if one := serve(ServerConfig{ExecConfig: ExecConfig{Workers: 1}, EpochWorkers: 1}); wide != one {
			t.Errorf("seed %d: (ii) 2 epoch workers × 8 task workers report\n%s\n1 × 1\n%s", seed, wide, one)
		}

		// (iv) The first program under the seed's faults, replayed eagerly
		// and lazily, each on a fresh runtime.
		replay := func(partial bool) *Report {
			pol := relationPolicy
			pol.PartialReplay = partial
			rep, err := newRT().Run(progs[0].job, pol)
			settle(progs[0], rep, err)
			return rep
		}
		eager, lazy := replay(false), replay(true)
		if eager.Attempts > 1 {
			retried++
		}
		if got, want := lazy.String(), eager.String(); got != want ||
			lazy.Attempts != eager.Attempts || lazy.SkippedTasks != eager.SkippedTasks || lazy.ReplayedTasks != eager.ReplayedTasks {
			t.Errorf("seed %d: (iv) lazy replay reports (%d attempts, %d skipped, %d replayed)\n%s\neager replay (%d, %d, %d)\n%s",
				seed, lazy.Attempts, lazy.SkippedTasks, lazy.ReplayedTasks, got, eager.Attempts, eager.SkippedTasks, eager.ReplayedTasks, want)
		}
	}
	if retried == 0 {
		t.Error("no first program met a fault, so no recovery was compared")
	}
}
