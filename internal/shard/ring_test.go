package shard

import (
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/workload"
)

// refSignature is Signature as it was when it wrote the name and the task
// IDs into a hash/fnv hasher: the reference TestSignatureUnchanged holds the
// inline hash to.
func refSignature(job *dataflow.Job) uint64 {
	h := fnv.New64a()
	io.WriteString(h, job.Name())
	for _, t := range job.Tasks() {
		h.Write([]byte{0})
		io.WriteString(h, t.ID())
	}
	return h.Sum64()
}

// TestSignatureUnchanged pins the routing key: every job routes where it
// routed when the key was computed through hash/fnv. The golden values were
// taken from that code, names with NUL and '/' bytes among them (and with
// them the one collision the format has always had: a NUL in a name reads as
// a task boundary). Serving-mix draws are checked against the reference.
// Computing a key allocates nothing.
func TestSignatureUnchanged(t *testing.T) {
	golden := []struct {
		name  string
		tasks []string
		sig   uint64
	}{
		{"", nil, 0xcbf29ce484222325},
		{"dbms", []string{"scan", "filter", "hash-aggregate", "hash-join"}, 0xd4a8021fffe2295b},
		{"graph", []string{"load", "bfs", "summarize"}, 0x5483dba4b8db4b75},
		{"job@1/win\x00dow", []string{"a/b", "\x00", "c\x00/d", "/"}, 0xb5aa376c1c25655f},
		{"ab", []string{"c"}, 0xfd61c083ef200867},
		{"a", []string{"bc"}, 0xab40f6820d40b523},
		{"a", []string{"b"}, 0xe5d29919042666b2},
		{"a\x00b", nil, 0xe5d29919042666b2},
	}
	for _, g := range golden {
		j := dataflow.NewJob(g.name)
		for _, id := range g.tasks {
			j.Task(id, dataflow.Props{}, nil)
		}
		if got := Signature(j); got != g.sig {
			t.Errorf("Signature(%q %q) = %#016x, want %#016x", g.name, g.tasks, got, g.sig)
		}
		if got := refSignature(j); got != g.sig {
			t.Errorf("reference(%q %q) = %#016x, want %#016x", g.name, g.tasks, got, g.sig)
		}
	}
	mix := workload.NewMix(workload.MixConfig{Seed: 42, RealFraction: 0.5})
	var job *dataflow.Job
	for i := 0; i < 200; i++ {
		job = mix.Next()
		if got, want := Signature(job), refSignature(job); got != want {
			t.Fatalf("mix draw %d (%s): Signature %#016x, reference %#016x", i, job.Name(), got, want)
		}
	}
	if got := testing.AllocsPerRun(100, func() { Signature(job) }); got != 0 {
		t.Errorf("Signature allocates %.0f, want 0", got)
	}
}
