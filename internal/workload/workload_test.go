package workload

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
)

func runJob(t *testing.T, job *dataflow.Job) *core.Report {
	t.Helper()
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if live := rt.Regions().Live(); live != 0 {
		t.Fatalf("%s leaked %d regions", job.Name(), live)
	}
	return rep
}

func logOf(rep *core.Report, task, substr string) string {
	for _, l := range rep.Task(task).Logs {
		if strings.Contains(l, substr) {
			return l
		}
	}
	return ""
}

func TestHospitalJobShape(t *testing.T) {
	j := Hospital(DefaultHospital())
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 5 {
		t.Errorf("tasks = %d, want 5 (Fig. 2)", j.Len())
	}
	if len(j.Sinks()) != 3 {
		t.Errorf("sinks = %d, want T3/T4/T5", len(j.Sinks()))
	}
	t2, _ := j.Get("face-recognition")
	if len(t2.Succs()) != 3 {
		t.Errorf("T2 fan-out = %d, want 3", len(t2.Succs()))
	}
}

func TestHospitalRunProducesAlerts(t *testing.T) {
	rep := runJob(t, Hospital(DefaultHospital()))
	if l := logOf(rep, "alert-caregivers", "alerted caregivers"); l == "" || strings.Contains(l, "alerted caregivers 0 times") {
		t.Errorf("expected alerts, got %q", l)
	}
	if l := logOf(rep, "compute-utilization", "distinct persons"); l == "" {
		t.Error("utilization log missing")
	}
	if l := logOf(rep, "face-recognition", "recognized 32 sightings"); l == "" {
		t.Error("recognition must process every frame")
	}
}

func TestHospitalZeroConfigDefaults(t *testing.T) {
	j := Hospital(HospitalConfig{})
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 5 {
		t.Error("zero config must fall back to defaults")
	}
}

func TestDBMSQueryCorrectness(t *testing.T) {
	// With Rows=4096, Groups=64, Predicate=3: every group keeps at least
	// one row (filter drops ~1/3), so the join over the filtered table must
	// match every probe row.
	cfg := DefaultDBMS()
	rep := runJob(t, DBMS(cfg))
	kept := logOf(rep, "filter", "filter kept")
	if kept == "" {
		t.Fatal("filter log missing")
	}
	var k, total int
	if _, err := sscan(kept, "filter kept %d of %d rows", &k, &total); err != nil {
		t.Fatalf("unparsable filter log %q: %v", kept, err)
	}
	if total != cfg.Rows || k <= 0 || k >= cfg.Rows {
		t.Errorf("filter kept %d of %d — predicate had no effect", k, total)
	}
	join := logOf(rep, "hash-join", "join matched")
	var matches int
	if _, err := sscan(join, "join matched %d probe rows", &matches); err != nil {
		t.Fatalf("unparsable join log %q: %v", join, err)
	}
	// The join probes the aggregate's group rows against the re-used hash
	// index: with ≥1 surviving row per group, every group key must match.
	if matches != cfg.Groups {
		t.Errorf("join matched %d, want all %d groups", matches, cfg.Groups)
	}
}

func TestDBMSAggregateUsesPrivateScratch(t *testing.T) {
	rep := runJob(t, DBMS(DefaultDBMS()))
	dev := rep.Task("hash-aggregate").Region("group-ht")
	if dev == "" {
		t.Fatal("group hash table placement missing")
	}
	if strings.Contains(dev, "far") || strings.Contains(dev, "ssd") || strings.Contains(dev, "hdd") {
		t.Errorf("operator state landed on %s — must be near memory", dev)
	}
}

func TestMLTrainingConsumesCache(t *testing.T) {
	rep := runJob(t, ML(DefaultML()))
	if l := logOf(rep, "train", "trained 64 weights"); l == "" {
		t.Error("training log missing")
	}
	if l := logOf(rep, "preprocess", "cached 128 transformed samples"); l == "" {
		t.Error("cache log missing")
	}
	// The sample cache is shared between CPU preprocess and TPU train:
	// both tasks must record the same placement for it.
	p := rep.Task("preprocess").Region("sample-cache")
	tr := rep.Task("train").Region("sample-cache")
	if p == "" || p != tr {
		t.Errorf("sample cache moved: preprocess=%s train=%s", p, tr)
	}
}

func TestHPCStencilConverges(t *testing.T) {
	rep := runJob(t, HPC(HPCConfig{Grid: 16, Sweeps: 8}))
	sum := logOf(rep, "publish", "checksum")
	var checksum uint64
	if _, err := sscan(sum, "published field, checksum %d", &checksum); err != nil {
		t.Fatalf("unparsable checksum log %q: %v", sum, err)
	}
	// Heat must have diffused from the hot boundary: checksum strictly
	// between the all-cold (0... well, boundary row stays 255·16 in input
	// but interior relaxation loses the boundary) and all-hot extremes.
	if checksum == 0 {
		t.Error("stencil produced an all-zero field")
	}
	if checksum >= 255*16*16 {
		t.Error("stencil produced an all-hot field")
	}
}

func TestStreamWindowTotals(t *testing.T) {
	cfg := DefaultStream()
	rep := runJob(t, StreamWindow(cfg, 3))
	total := logOf(rep, "sink", "sank")
	var window, events, keySum uint64
	if _, err := sscan(total, "window %d: sank %d events (key sum %d)", &window, &events, &keySum); err != nil {
		t.Fatalf("unparsable sink log %q: %v", total, err)
	}
	if window != 3 {
		t.Errorf("sink reported window %d, want 3", window)
	}
	if int(events) != cfg.WindowSize {
		t.Errorf("window accounts for %d events, want all %d", events, cfg.WindowSize)
	}
	// Keys cycle 0..Keys-1 over a full window, so the key sum is exact.
	full := cfg.WindowSize / cfg.Keys * (cfg.Keys * (cfg.Keys - 1) / 2)
	if int(keySum) != full {
		t.Errorf("key sum = %d, want %d", keySum, full)
	}
}

func TestStreamWindowPartitionedMatchesSingle(t *testing.T) {
	cfg := DefaultStream()
	cfg.Partitions = 4
	rep := runJob(t, StreamWindow(cfg, 0))
	total := logOf(rep, "sink", "sank")
	var window, events, keySum uint64
	if _, err := sscan(total, "window %d: sank %d events (key sum %d)", &window, &events, &keySum); err != nil {
		t.Fatalf("unparsable sink log %q: %v", total, err)
	}
	if int(events) != cfg.WindowSize {
		t.Errorf("partitioned window accounts for %d events, want %d", events, cfg.WindowSize)
	}
	for p := 0; p < cfg.Partitions; p++ {
		name := fmt.Sprintf("window-aggregate-%d", p)
		if rep.Task(name) == nil {
			t.Errorf("missing partition task %s", name)
		}
	}
}

func TestRegionHashTableDirect(t *testing.T) {
	// Exercise the hash table against a real runtime context through a
	// one-task job.
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	j := dataflow.NewJob("ht-test")
	j.Task("t", dataflow.Props{Compute: dataflow.OnCPU, MemLatency: props.LatencyLow}, func(ctx dataflow.Ctx) error {
		ht, err := NewRegionHashTable(ctx, "ht", 64)
		if err != nil {
			return err
		}
		for k := uint32(0); k < 40; k++ {
			if err := ht.Upsert(k, func(old uint32) uint32 { return old + k }); err != nil {
				return err
			}
		}
		for k := uint32(0); k < 40; k++ {
			v, ok, err := ht.Lookup(k)
			if err != nil {
				return err
			}
			if !ok || v != k {
				t.Errorf("lookup %d = (%d,%t)", k, v, ok)
			}
		}
		if _, ok, err := ht.Lookup(999); err != nil || ok {
			t.Error("absent key must miss")
		}
		// Collision chains: same bucket, distinct keys.
		if err := ht.Upsert(1000, func(uint32) uint32 { return 7 }); err != nil {
			return err
		}
		if v, ok, _ := ht.Lookup(1000); !ok || v != 7 {
			t.Error("collision insert lost")
		}
		return nil
	})
	if _, err := rt.Run(j); err != nil {
		t.Fatal(err)
	}
}

func TestRegionHashTableFull(t *testing.T) {
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	j := dataflow.NewJob("ht-full")
	j.Task("t", dataflow.Props{Compute: dataflow.OnCPU}, func(ctx dataflow.Ctx) error {
		ht, err := NewRegionHashTable(ctx, "ht", 4)
		if err != nil {
			return err
		}
		for k := uint32(0); k < 4; k++ {
			if err := ht.Upsert(k, func(uint32) uint32 { return 1 }); err != nil {
				return err
			}
		}
		if err := ht.Upsert(99, func(uint32) uint32 { return 1 }); err == nil {
			t.Error("5th insert into 4 slots must fail")
		}
		return nil
	})
	if _, err := rt.Run(j); err != nil {
		t.Fatal(err)
	}
}

func TestFNV32Deterministic(t *testing.T) {
	if fnv32([]byte("abc")) != fnv32([]byte("abc")) {
		t.Error("hash must be deterministic")
	}
	if fnv32([]byte("abc")) == fnv32([]byte("abd")) {
		t.Error("hash must discriminate")
	}
}

// sscan is fmt.Sscanf with the target prefix stripped of log decoration.
func sscan(s, format string, args ...any) (int, error) {
	idx := strings.Index(s, strings.SplitN(format, "%", 2)[0])
	if idx >= 0 {
		s = s[idx:]
	}
	return fmt.Sscanf(s, format, args...)
}

func TestGraphBFSMatchesOracle(t *testing.T) {
	cfg := DefaultGraph()
	wantReached, wantMax := GraphOracle(cfg)
	rep := runJob(t, Graph(cfg))
	l := logOf(rep, "bfs", "bfs reached")
	var reached, total, levels int
	if _, err := sscan(l, "bfs reached %d of %d vertices in %d levels", &reached, &total, &levels); err != nil {
		t.Fatalf("unparsable bfs log %q: %v", l, err)
	}
	if reached != wantReached || total != cfg.Vertices {
		t.Errorf("bfs reached %d of %d, oracle says %d", reached, total, wantReached)
	}
	dia := logOf(rep, "summarize", "diameter bound")
	var maxD uint32
	if _, err := sscan(dia, "graph diameter bound %d", &maxD); err != nil {
		t.Fatalf("unparsable summarize log %q: %v", dia, err)
	}
	if maxD != wantMax {
		t.Errorf("diameter bound %d, oracle says %d", maxD, wantMax)
	}
}

func TestGraphConnectedByConstruction(t *testing.T) {
	// The ring edge guarantees full reachability from vertex 0.
	reached, _ := GraphOracle(GraphConfig{Vertices: 100, AvgDegree: 2, Seed: 3})
	if reached != 100 {
		t.Errorf("ring construction must reach all vertices, got %d", reached)
	}
}

func TestGraphZeroConfigDefaults(t *testing.T) {
	j := Graph(GraphConfig{})
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Errorf("graph job tasks = %d", j.Len())
	}
	if DefaultGraph().String() == "" {
		t.Error("config must render")
	}
}
