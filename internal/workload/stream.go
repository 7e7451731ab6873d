package workload

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/stream"
)

// StreamConfig scales the Table 3 streaming row as a served stream: a
// synthetic event source cut into tumbling windows, each window an
// incremental source → window-aggregate → sink sub-DAG. Send/receive
// buffers are Private Scratch; cluster/worker state is Global State; the
// rolling result cache is Global Scratch.
type StreamConfig struct {
	Windows     int // windows in the finite synthetic stream
	WindowSize  int // events per tumbling window
	EventSize   int // bytes per event
	Keys        int // distinct event keys
	Partitions  int // key-partition fan-out of the aggregate stage (default 1)
	MaxInFlight int // in-flight window bound (0 = engine default)
}

// DefaultStream returns the configuration used by tests and benches: the
// same 512-event/64-per-window stream the retired monolithic job replayed.
func DefaultStream() StreamConfig {
	return StreamConfig{Windows: 8, WindowSize: 64, EventSize: 64, Keys: 16, Partitions: 1}
}

// norm applies defaults field by field so partial configs stay usable.
func (cfg StreamConfig) norm() StreamConfig {
	def := DefaultStream()
	if cfg.Windows <= 0 {
		cfg.Windows = def.Windows
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = def.WindowSize
	}
	if cfg.EventSize <= 0 {
		cfg.EventSize = def.EventSize
	}
	if cfg.Keys <= 0 {
		cfg.Keys = def.Keys
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	return cfg
}

// StreamEvents synthesizes the finite event slice the stream replays:
// Windows×WindowSize events, key = seq mod Keys, payloads deterministic.
func StreamEvents(cfg StreamConfig) []stream.Event {
	cfg = cfg.norm()
	events := make([]stream.Event, cfg.Windows*cfg.WindowSize)
	for i := range events {
		payload := make([]byte, cfg.EventSize)
		synthesizeFrame(payload, i)
		binary.BigEndian.PutUint32(payload[:4], uint32(i%cfg.Keys)) // event key
		events[i] = stream.Event{Key: uint64(i % cfg.Keys), Payload: payload}
	}
	return events
}

// Stream declares the synthetic stream as a served scenario: submit the
// returned spec via the server's SubmitStream and every window runs as an
// ordinary job named "streaming/w%06d". The spec holds a fresh source —
// build a new spec per run.
func Stream(cfg StreamConfig) stream.Spec {
	cfg = cfg.norm()
	return stream.Spec{
		Name:        "streaming",
		Source:      stream.NewSliceSource(StreamEvents(cfg)),
		WindowSize:  cfg.WindowSize,
		MaxInFlight: cfg.MaxInFlight,
		Build: func(w stream.Window, j *dataflow.Job) error {
			return buildStreamWindow(cfg, w, j)
		},
	}
}

// StreamWindow instantiates window w of the synthetic stream as a
// standalone job — what the paper tables and single-job harnesses run.
// It panics on out-of-range w or a build error, like the other workload
// constructors, which never fail on valid configs.
func StreamWindow(cfg StreamConfig, w int) *dataflow.Job {
	cfg = cfg.norm()
	if w < 0 || w >= cfg.Windows {
		panic(fmt.Sprintf("workload: stream window %d out of range [0,%d)", w, cfg.Windows))
	}
	events := StreamEvents(cfg)[w*cfg.WindowSize : (w+1)*cfg.WindowSize]
	j, err := Stream(cfg).Instantiate(w, events)
	if err != nil {
		panic(fmt.Sprintf("workload: stream window build: %v", err))
	}
	return j
}

// buildStreamWindow populates one window's sub-DAG: source stages the
// window's events through a Private Scratch receive buffer, the (possibly
// key-partitioned) aggregate stage heartbeats Global State and folds its
// partition, and sink merges partials into the Global Scratch rolling
// result cache.
func buildStreamWindow(cfg StreamConfig, w stream.Window, j *dataflow.Job) error {
	n := len(w.Events)
	if n == 0 {
		return fmt.Errorf("workload: stream window %d is empty", w.Index)
	}
	// Arrival-order byte offsets of each event in the source's output.
	offs := make([]int64, n+1)
	for i, ev := range w.Events {
		offs[i+1] = offs[i] + int64(len(ev.Payload))
	}
	winBytes := offs[n]

	source := j.Task("source", dataflow.Props{
		Compute: dataflow.OnCPU, Ops: float64(n) * 100, OutputBytes: winBytes,
	}, func(ctx dataflow.Ctx) error {
		// Receive buffer: Private Scratch ("cache/buffer (send, recv.)").
		recv, err := ctx.Scratch("recv-buffer", int64(cfg.EventSize*16))
		if err != nil {
			return err
		}
		out, err := ctx.Output(winBytes)
		if err != nil {
			return err
		}
		for i, ev := range w.Events {
			// Stage through the receive buffer like a real socket read.
			slot := int64(i%16) * int64(cfg.EventSize)
			now, err := recv.WriteAt(ctx.Now(), slot, ev.Payload)
			if err != nil {
				return err
			}
			ctx.Wait(now)
			now, err = out.WriteAt(ctx.Now(), offs[i], ev.Payload)
			if err != nil {
				return err
			}
			ctx.Wait(now)
		}
		ctx.Log("window %d: ingested %d events", w.Index, n)
		return nil
	})

	sink := j.Task("sink", dataflow.Props{
		Compute: dataflow.OnCPU, Ops: float64(cfg.Partitions) * 200, OutputBytes: 8,
	}, func(ctx dataflow.Ctx) error {
		ins := ctx.Inputs()
		// Rolling results cache: Global Scratch, one 8-byte slot per
		// window, reused round-robin across the stream.
		cache, err := ctx.Global("result-cache", props.GlobalScratch, 1024)
		if err != nil {
			return err
		}
		agg := make([]byte, 8)
		var count, keySum uint64
		for _, in := range ins {
			now, err := in.ReadAt(ctx.Now(), 0, agg)
			if err != nil {
				return err
			}
			ctx.Wait(now)
			count += uint64(binary.BigEndian.Uint32(agg[:4]))
			keySum += uint64(binary.BigEndian.Uint32(agg[4:]))
		}
		binary.BigEndian.PutUint32(agg[:4], uint32(count))
		binary.BigEndian.PutUint32(agg[4:], uint32(keySum))
		f := cache.WriteAsync(ctx.Now(), int64(w.Index%128)*8, agg)
		now, err := f.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		out, err := ctx.Output(8)
		if err != nil {
			return err
		}
		res := make([]byte, 8)
		binary.BigEndian.PutUint64(res, count)
		now, err = out.WriteAt(ctx.Now(), 0, res)
		if err != nil {
			return err
		}
		ctx.Wait(now)
		ctx.Log("window %d: sank %d events (key sum %d)", w.Index, count, keySum)
		return nil
	})

	// Key-partitioned aggregate fan-out. A single partition keeps the
	// Table 3 task name "window-aggregate" verbatim. Each partition's event
	// indices, in arrival order, are a window of one block: counted first
	// (in the block's tail), then filled in place.
	parts := make([][]int, cfg.Partitions)
	block := make([]int, n+cfg.Partitions)
	counts := block[n:]
	for _, ev := range w.Events {
		counts[ev.Key%uint64(cfg.Partitions)]++
	}
	at := 0
	for p, c := range counts {
		parts[p] = block[at : at : at+c]
		at += c
	}
	for i, ev := range w.Events {
		p := int(ev.Key % uint64(cfg.Partitions))
		parts[p] = append(parts[p], i)
	}
	for p := 0; p < cfg.Partitions; p++ {
		name := "window-aggregate"
		if cfg.Partitions > 1 {
			name = fmt.Sprintf("window-aggregate-%d", p)
		}
		idx := parts[p]
		slot := p
		agg := j.Task(name, dataflow.Props{
			Compute: dataflow.OnCPU, MemLatency: props.LatencyLow,
			Ops: float64(len(idx))*300 + 100, OutputBytes: 8,
		}, func(ctx dataflow.Ctx) error {
			in := ctx.Inputs()[0]
			// Worker liveness/state: Global State, one heartbeat slot per
			// partition worker.
			worker, err := ctx.Global("cluster-state", props.GlobalState, 128)
			if err != nil {
				return err
			}
			hb := make([]byte, 8)
			binary.BigEndian.PutUint64(hb, 1) // mark worker alive
			now, err := worker.WriteAt(ctx.Now(), int64(slot%16)*8, hb)
			if err != nil {
				return err
			}
			ctx.Wait(now)

			out, err := ctx.Output(8)
			if err != nil {
				return err
			}
			var max int
			for _, i := range idx {
				if l := len(w.Events[i].Payload); l > max {
					max = l
				}
			}
			buf := make([]byte, max)
			var count, keySum uint32
			for _, i := range idx {
				ev := buf[:len(w.Events[i].Payload)]
				now, err := in.ReadAt(ctx.Now(), offs[i], ev)
				if err != nil {
					return err
				}
				ctx.Wait(now)
				count++
				keySum += binary.BigEndian.Uint32(ev[:4])
			}
			res := make([]byte, 8)
			binary.BigEndian.PutUint32(res[:4], count)
			binary.BigEndian.PutUint32(res[4:], keySum)
			now, err = out.WriteAt(ctx.Now(), 0, res)
			if err != nil {
				return err
			}
			ctx.Wait(now)
			ctx.Log("window %d partition %d: aggregated %d events", w.Index, slot, count)
			return nil
		})
		source.Then(agg)
		agg.Then(sink)
	}
	return nil
}
