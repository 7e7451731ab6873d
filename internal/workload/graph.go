package workload

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/props"
)

// GraphConfig scales the graph-analytics job — the "large-scale data
// analytics platforms" of the paper's §2.1 motivation, in the shape that
// stresses memory systems hardest: pointer-chasing over an irregular
// structure.
type GraphConfig struct {
	Vertices  int
	AvgDegree int
	Seed      uint64
}

// DefaultGraph returns the configuration used by tests and benches.
func DefaultGraph() GraphConfig { return GraphConfig{Vertices: 512, AvgDegree: 4, Seed: 7} }

// csrBytes returns the encoded size: header(8) | offsets((V+1)*4) | edges(E*4).
func csrBytes(v, e int) int64 { return 8 + int64(v+1)*4 + int64(e)*4 }

// synthesizeCSR builds a deterministic random graph in CSR form.
func synthesizeCSR(cfg GraphConfig) (offsets []uint32, edges []uint32) {
	state := cfg.Seed*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	offsets = make([]uint32, cfg.Vertices+1)
	for v := 0; v < cfg.Vertices; v++ {
		deg := next(cfg.AvgDegree*2) + 1 // 1..2·avg
		offsets[v+1] = offsets[v] + uint32(deg)
	}
	edges = make([]uint32, offsets[cfg.Vertices])
	for v := 0; v < cfg.Vertices; v++ {
		for i := offsets[v]; i < offsets[v+1]; i++ {
			// Bias edges toward a ring + random long links so the graph is
			// connected with interesting diameter.
			if i == offsets[v] {
				edges[i] = uint32((v + 1) % cfg.Vertices)
			} else {
				edges[i] = uint32(next(cfg.Vertices))
			}
		}
	}
	return offsets, edges
}

// Graph builds the job: load (materialize CSR) → bfs (level-synchronous
// traversal with the frontier in Private Scratch) → summarize (distance
// histogram into Global Scratch).
func Graph(cfg GraphConfig) *dataflow.Job {
	if cfg.Vertices <= 0 {
		cfg = DefaultGraph()
	}
	offsets, edges := synthesizeCSR(cfg)
	total := csrBytes(cfg.Vertices, len(edges))
	j := dataflow.NewJob("graph-bfs")

	load := j.Task("load", dataflow.Props{
		Compute: dataflow.OnCPU, Ops: float64(total), OutputBytes: total,
	}, func(ctx dataflow.Ctx) error {
		out, err := ctx.Output(total)
		if err != nil {
			return err
		}
		buf := make([]byte, total)
		binary.BigEndian.PutUint32(buf[0:4], uint32(cfg.Vertices))
		binary.BigEndian.PutUint32(buf[4:8], uint32(len(edges)))
		pos := 8
		for _, o := range offsets {
			binary.BigEndian.PutUint32(buf[pos:], o)
			pos += 4
		}
		for _, e := range edges {
			binary.BigEndian.PutUint32(buf[pos:], e)
			pos += 4
		}
		now, err := out.WriteAt(ctx.Now(), 0, buf)
		if err != nil {
			return err
		}
		ctx.Wait(now)
		ctx.Log("loaded CSR: %d vertices, %d edges", cfg.Vertices, len(edges))
		return nil
	})

	bfs := j.Task("bfs", dataflow.Props{
		Compute: dataflow.OnCPU, MemLatency: props.LatencyLow,
		Ops: float64(len(edges)) * 50, OutputBytes: int64(cfg.Vertices * 4),
	}, func(ctx dataflow.Ctx) error {
		in := ctx.Inputs()[0]
		head := make([]byte, 8)
		now, err := in.ReadAt(ctx.Now(), 0, head)
		if err != nil {
			return err
		}
		ctx.Wait(now)
		v := int(binary.BigEndian.Uint32(head[0:4]))
		e := int(binary.BigEndian.Uint32(head[4:8]))
		// The adjacency structure stays in the input region; the distance
		// array and frontier live in Private Scratch. Every offset/edge
		// read pays the input region's placement cost.
		distR, err := ctx.Scratch("distances", int64(v*4))
		if err != nil {
			return err
		}
		offBase := int64(8)
		edgeBase := offBase + int64(v+1)*4
		readU32 := func(off int64) (uint32, error) {
			var b [4]byte
			done, err := in.ReadAt(ctx.Now(), off, b[:])
			if err != nil {
				return 0, err
			}
			ctx.Wait(done)
			return binary.BigEndian.Uint32(b[:]), nil
		}
		const unreached = ^uint32(0)
		dist := make([]uint32, v) // mirrors the scratch region
		for i := range dist {
			dist[i] = unreached
		}
		dist[0] = 0
		frontier := []uint32{0}
		levels := 0
		touched := 1
		var db [4]byte
		for len(frontier) > 0 {
			var nxt []uint32
			for _, u := range frontier {
				lo, err := readU32(offBase + int64(u)*4)
				if err != nil {
					return err
				}
				hi, err := readU32(offBase + int64(u+1)*4)
				if err != nil {
					return err
				}
				for i := lo; i < hi; i++ {
					w, err := readU32(edgeBase + int64(i)*4)
					if err != nil {
						return err
					}
					if dist[w] == unreached {
						dist[w] = dist[u] + 1
						binary.BigEndian.PutUint32(db[:], dist[w])
						done, err := distR.WriteAt(ctx.Now(), int64(w)*4, db[:])
						if err != nil {
							return err
						}
						ctx.Wait(done)
						nxt = append(nxt, w)
						touched++
					}
				}
			}
			frontier = nxt
			levels++
		}
		out, err := ctx.Output(int64(v * 4))
		if err != nil {
			return err
		}
		res := make([]byte, v*4)
		for i, d := range dist {
			binary.BigEndian.PutUint32(res[i*4:], d)
		}
		now, err = out.WriteAt(ctx.Now(), 0, res)
		if err != nil {
			return err
		}
		ctx.Wait(now)
		ctx.Log("bfs reached %d of %d vertices in %d levels", touched, v, levels)
		_ = e
		return nil
	})

	summarize := j.Task("summarize", dataflow.Props{
		Compute: dataflow.OnCPU, Ops: float64(cfg.Vertices) * 20, OutputBytes: 8,
	}, func(ctx dataflow.Ctx) error {
		in := ctx.Inputs()[0]
		n, _ := in.Size()
		buf := make([]byte, n)
		now, err := in.ReadAt(ctx.Now(), 0, buf)
		if err != nil {
			return err
		}
		ctx.Wait(now)
		hist := map[uint32]int{}
		maxD := uint32(0)
		for i := int64(0); i < n; i += 4 {
			d := binary.BigEndian.Uint32(buf[i:])
			if d == ^uint32(0) {
				continue
			}
			hist[d]++
			if d > maxD {
				maxD = d
			}
		}
		// Publish the histogram to Global Scratch for downstream queries.
		blob, err := ctx.Global("distance-histogram", props.GlobalScratch, int64((maxD+1)*8))
		if err != nil {
			return err
		}
		var hb [8]byte
		for d := uint32(0); d <= maxD; d++ {
			binary.BigEndian.PutUint64(hb[:], uint64(hist[d]))
			f := blob.WriteAsync(ctx.Now(), int64(d)*8, hb[:])
			now, err := f.Await(ctx.Now())
			if err != nil {
				return err
			}
			ctx.Wait(now)
		}
		out, err := ctx.Output(8)
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint64(hb[:], uint64(maxD))
		now, err = out.WriteAt(ctx.Now(), 0, hb[:])
		if err != nil {
			return err
		}
		ctx.Wait(now)
		ctx.Log("graph diameter bound %d (from source 0)", maxD)
		return nil
	})

	load.Then(bfs)
	bfs.Then(summarize)
	return j
}

// String renders the config.
func (c GraphConfig) String() string {
	return fmt.Sprintf("graph{V=%d,avgDeg=%d,seed=%d}", c.Vertices, c.AvgDegree, c.Seed)
}
