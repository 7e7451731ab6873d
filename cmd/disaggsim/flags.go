package main

// Flag registration lives here, on an explicit *flag.FlagSet, so the CLI
// surface is testable: flags_test.go renders the same table README.md
// embeds (between the disaggsim-flags markers) and fails when the two
// drift. Add a flag → rerun the test → paste the printed table.

import (
	"flag"
	"fmt"
	"sort"
	"strings"
)

// options holds every disaggsim flag value.
type options struct {
	job           string
	jobs          string
	scheduler     string
	placer        string
	profile       bool
	trace         string
	seed          int64
	serve         bool
	workers       int
	queue         int
	batch         int
	recover       bool
	partialReplay bool
	faultRate     float64
	maxAttempts   int
	execWorkers   int
	shards        int
	crash         int
	migrate       bool
	stream        bool
	windows       int
	crashWindow   int
}

// registerFlags binds the full disaggsim flag surface onto fs and returns
// the struct the parsed values land in.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.job, "job", "hospital", "workload: hospital|dbms|ml|hpc|streaming|graph")
	fs.StringVar(&o.jobs, "jobs", "", "comma-separated workloads to serve concurrently, or a plain count of -job copies (overrides -job)")
	fs.StringVar(&o.scheduler, "scheduler", "heft", "scheduler: heft|fifo|rr")
	fs.StringVar(&o.placer, "placer", "best", "placement policy: best|first|worst|random")
	fs.BoolVar(&o.profile, "profile", false, "print the cross-layer telemetry profile")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace (chrome://tracing JSON) of the run to this file")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the random placer and the fault injector")
	fs.BoolVar(&o.serve, "serve", false, "submit jobs through the admission-controlled server (see -jobs, -workers)")
	fs.IntVar(&o.workers, "workers", 4, "serve mode: epoch workers in the pool")
	fs.IntVar(&o.queue, "queue", 64, "serve mode: admission queue depth")
	fs.IntVar(&o.batch, "batch", 8, "serve mode: max jobs folded into one batch")
	fs.BoolVar(&o.recover, "recover", false, "checkpointed recovery: retry failed jobs, restoring completed tasks")
	fs.BoolVar(&o.partialReplay, "partialreplay", false, "with -recover: restore checkpoint payloads lazily, skipping store reads no re-executed task needs")
	fs.Float64Var(&o.faultRate, "faultrate", 0, "inject one deterministic fault into this fraction of task sites (0..1)")
	fs.IntVar(&o.maxAttempts, "maxattempts", 3, "recovery: total runs per submission")
	fs.IntVar(&o.execWorkers, "execworkers", 0, "wavefront executor pool size per run (0 = GOMAXPROCS); virtual time is identical for every value")
	fs.IntVar(&o.shards, "shards", 1, "serve mode: consistent-hash submissions across this many server shards (each with its own runtime; -placer does not apply)")
	fs.IntVar(&o.crash, "crash", -1, "serve mode with -shards: crash this shard mid-stream to demonstrate re-route/failover")
	fs.BoolVar(&o.migrate, "migrate", false, "serve mode with -shards: maintenance sweeps evict cold regions to remote shards' memory pools over the fabric (reports stay byte-identical)")
	fs.BoolVar(&o.stream, "stream", false, "serve the streaming workload window by window through Server.SubmitStream (see -windows, -crashwindow)")
	fs.IntVar(&o.windows, "windows", 8, "stream mode: windows in the synthetic stream")
	fs.IntVar(&o.crashWindow, "crashwindow", -1, "stream mode with -recover: cancel the stream after this many retired windows, then resume it from checkpoints")
	return o
}

// flagTable renders the registered flags as the GitHub-flavored markdown
// table README.md embeds. Rows are sorted by flag name — the same order
// `disaggsim -h` prints.
func flagTable() string {
	fs := flag.NewFlagSet("disaggsim", flag.ContinueOnError)
	registerFlags(fs)
	type row struct{ name, def, usage string }
	var rows []row
	fs.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		if def == "" {
			def = `""`
		}
		rows = append(rows, row{f.Name, def, f.Usage})
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	b.WriteString("| Flag | Default | Description |\n")
	b.WriteString("|------|---------|-------------|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| `-%s` | `%s` | %s |\n", r.name, r.def, strings.ReplaceAll(r.usage, "|", "\\|"))
	}
	return b.String()
}
