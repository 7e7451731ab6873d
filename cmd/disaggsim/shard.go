package main

// What -shards N adds to serve mode (serveJobs in main.go): submissions are
// routed by consistent hash across N core.Server shards over the cluster
// fabric; -crash kills a shard mid-stream — its in-flight jobs are re-routed
// to survivors, resuming from checkpoints with -recover — and -migrate sweeps
// cold regions into remote shards' memory while jobs are in flight.

import (
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/core"
)

// shardedServe is the cluster behind a sharded serve run and the demo's
// moving parts around it.
type shardedServe struct {
	c *repro.Cluster
	o *options
	// sweeping is closed to stop the -migrate maintenance goroutine, swept
	// when it has stopped.
	sweeping, swept chan struct{}
}

// startSharded builds the cluster from the per-shard server template. Each
// shard owns a private runtime (default testbed topology, best-fit placer),
// so the -placer flag does not apply here. Identical workloads share a
// routing key by design — consistent hashing co-locates them — so pass a mix
// (-jobs hospital,dbms,ml,...) to spread load across shards.
func startSharded(cfg core.ServerConfig, o *options) (*shardedServe, error) {
	ccfg := repro.ClusterConfig{
		Shards: o.shards, Server: cfg, TrackLoad: true, Migrate: o.migrate,
	}
	if o.migrate {
		// Demo watermark: the built-in workloads never fill a device, so
		// evict cold regions at any utilization to make the remote path
		// visible. Reports stay byte-identical regardless.
		ccfg.Rebalance = repro.RebalancePolicy{EvictWatermark: 1e-9}
	}
	c, err := repro.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	sc := &shardedServe{c: c, o: o, sweeping: make(chan struct{}), swept: make(chan struct{})}
	if !o.migrate {
		close(sc.swept)
		return sc, nil
	}
	// A maintenance goroutine sweeps every shard while jobs are in flight:
	// cold regions are exported to remote shards' pools and recalled on next
	// access. Virtual time never sees the sweeps — the per-job reports are
	// byte-identical with or without them.
	go func() {
		defer close(sc.swept)
		for {
			select {
			case <-sc.sweeping:
				return
			default:
			}
			c.Rebalance(0)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return sc, nil
}

// crash kills the -crash shard, if one was named, with inFlight submissions
// behind it.
func (sc *shardedServe) crash(stdout io.Writer, inFlight int) error {
	if sc.o.crash < 0 || sc.o.crash >= sc.o.shards {
		return nil
	}
	if err := sc.c.Crash(sc.o.crash); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "crashed shard%d with %d submissions in flight\n", sc.o.crash, inFlight)
	return nil
}

// finish ends the sweeps and prints the per-shard ledger, which reads the
// live fabric: call it before the cluster closes.
func (sc *shardedServe) finish(stdout io.Writer) {
	close(sc.sweeping)
	<-sc.swept
	for _, st := range sc.c.Stats() {
		state := "up"
		if st.Down {
			state = "DOWN"
		}
		fmt.Fprintf(stdout, "  %-7s %-4s submitted=%d admitted=%d rerouted=%d completed=%d est-work=%v fabric: %d verbs, %d bytes\n",
			st.Name, state, st.Submitted, st.Admitted, st.Rerouted, st.Completed,
			time.Duration(st.EstWorkNs), st.Fabric.Verbs, st.Fabric.Bytes)
	}
	if sc.o.migrate {
		mig := sc.c.MigrationStats()
		fmt.Fprintf(stdout, "migration: %d regions exported (%d bytes), %d recalled (%d bytes), %d live remote, verb time %v\n",
			mig.Exported, mig.BytesOut, mig.Recalled, mig.BytesBack, mig.Live, mig.VerbTime)
	}
}
