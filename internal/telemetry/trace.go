package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// ExportChromeTrace writes the registry's spans in the Chrome trace-event
// format (the JSON consumed by chrome://tracing and https://ui.perfetto.dev),
// answering the paper's challenge 8(1): even with the runtime hiding
// placement decisions, developers can *see* where virtual time went —
// each abstraction layer renders as its own track, each task as a slice.
//
// Events are "complete" events (ph="X"): timestamps and durations are the
// registry's virtual nanoseconds converted to microseconds (the format's
// unit). Layers map to process IDs so the viewer groups them; tasks map to
// thread names. The spans are the ones Spans returns; when the ring has
// dropped some, a leading dropped_spans metadata event counts them.
func (r *Registry) ExportChromeTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "[]")
		return err
	}
	type traceEvent struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`  // microseconds
		Dur  float64           `json:"dur"` // microseconds
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	type metaEvent struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid,omitempty"`
		Args map[string]string `json:"args"`
	}

	spans, recorded := r.window()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Layer < spans[j].Layer
	})
	layerPid := map[Layer]int{}
	// Threads are per (layer, task): tids number independently within each
	// pid, and every pid gets its own thread_name meta event. Keying tids by
	// task alone would emit the meta only under the first layer that touched
	// the task, leaving the same task's tracks in other layers unnamed.
	taskTid := map[string]int{}
	nextTid := map[int]int{}
	var events []any
	// A trace of a registry whose ring wrapped is a window: say so in the
	// file, so a viewer does not read the missing start of the run as idle.
	if dropped := recorded - int64(len(spans)); dropped > 0 {
		events = append(events, metaEvent{
			Name: "dropped_spans", Ph: "M",
			Args: map[string]string{
				"dropped":  strconv.FormatInt(dropped, 10),
				"recorded": strconv.FormatInt(recorded, 10),
			},
		})
	}
	for _, s := range spans {
		pid, ok := layerPid[s.Layer]
		if !ok {
			pid = len(layerPid) + 1
			layerPid[s.Layer] = pid
			events = append(events, metaEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]string{"name": "layer: " + string(s.Layer)},
			})
		}
		taskKey := s.Job + "/" + s.Task
		tidKey := fmt.Sprintf("%d/%s", pid, taskKey)
		tid, ok := taskTid[tidKey]
		if !ok {
			nextTid[pid]++
			tid = nextTid[pid]
			taskTid[tidKey] = tid
			events = append(events, metaEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]string{"name": taskKey},
			})
		}
		name := s.Name
		if name == "" {
			name = taskKey
		}
		events = append(events, traceEvent{
			Name: name, Cat: string(s.Layer), Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.Duration().Nanoseconds()) / 1e3,
			Pid: pid, Tid: tid,
			Args: map[string]string{"job": s.Job, "task": s.Task},
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(events); err != nil {
		return fmt.Errorf("telemetry: encoding trace: %w", err)
	}
	return nil
}
