package fault

import (
	"errors"
	"fmt"
	"sync"
)

// This file provides the deterministic fault-injection hook the runtime's
// recovery path is tested and demonstrated with. Simulated hardware never
// fails on its own; an Injector lets tests and disaggsim kill chosen task
// executions at a chosen attempt, so recovery behaviour is reproducible
// run-to-run (no wall-clock or math/rand nondeterminism).

// ErrInjected marks a deterministically injected task fault.
var ErrInjected = errors.New("fault: injected task failure")

// Injector decides, deterministically, which task executions fail. Two
// selection modes compose:
//
//   - rate-based: a seeded hash of the (submission, task) site picks a
//     `rate` fraction of sites; each picked site fails its first `kills`
//     executions and then succeeds, so recovery always converges;
//   - targeted: Kill(task, n) fails the next n executions of a task by
//     name, regardless of submission — pinpoint kills at a chosen
//     attempt/step for tests.
//
// An Injector is safe for concurrent use; a nil *Injector injects nothing.
type Injector struct {
	seed  uint64
	rate  float64
	kills int

	mu       sync.Mutex
	counts   map[string]int // site → injected failures so far
	targets  map[string]int // task → remaining targeted kills
	injected int64
}

// NewInjector builds an injector failing the first `kills` executions
// (default 1) of a `rate` fraction of task sites, selected by seed.
func NewInjector(seed uint64, rate float64, kills int) *Injector {
	if kills <= 0 {
		kills = 1
	}
	return &Injector{
		seed: seed, rate: rate, kills: kills,
		counts:  make(map[string]int),
		targets: make(map[string]int),
	}
}

// Kill schedules the next n executions of the named task to fail, in any
// submission — the "kill this task at attempt 1..n" test hook.
func (in *Injector) Kill(task string, n int) {
	if in == nil || n <= 0 {
		return
	}
	in.mu.Lock()
	in.targets[task] += n
	in.mu.Unlock()
}

// Step is called by the runtime immediately before a task body runs; a
// non-nil return is the injected fault and the task fails as if its body
// had returned it. id identifies the submission (unique per Server
// submission), task the task within it. The site string id+"/"+task is
// built only for a site that fails: a task the injector passes costs a hash
// and no allocation.
func (in *Injector) Step(id, task string) error {
	if in == nil {
		return nil
	}
	picked := in.rate > 0 && in.hash(id, task) < in.rate
	in.mu.Lock()
	defer in.mu.Unlock()
	if n := in.targets[task]; n > 0 {
		in.targets[task] = n - 1
		in.injected++
		return fmt.Errorf("%w: %s/%s (targeted)", ErrInjected, id, task)
	}
	if !picked {
		return nil
	}
	site := id + "/" + task
	if in.counts[site] < in.kills {
		in.counts[site]++
		in.injected++
		return fmt.Errorf("%w: %s (kill %d/%d)", ErrInjected, site, in.counts[site], in.kills)
	}
	return nil
}

// Injected reports how many faults have been injected so far.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// hash maps the site id+"/"+task to [0,1) with FNV-1a over the site's
// bytes, mixed with the seed and finalized with a 64-bit avalanche. It reads
// the two halves in place, never joining them.
func (in *Injector) hash(id, task string) float64 {
	h := uint64(1469598103934665603) ^ (in.seed * 0x9e3779b97f4a7c15)
	h = fnv1a(fnv1a(h, id), "/")
	h = fnv1a(h, task)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h>>11) / float64(1<<53)
}

// fnv1a folds s into the FNV-1a state h.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
