package fault

import (
	"errors"
	"fmt"
)

// This file provides the deterministic fault-injection hook the runtime's
// recovery path is tested and demonstrated with. Simulated hardware never
// fails on its own; an Injector lets tests and disaggsim kill chosen task
// executions at a chosen attempt, so recovery behaviour is reproducible
// run-to-run (no wall-clock or math/rand nondeterminism).

// ErrInjected marks a deterministically injected task fault.
var ErrInjected = errors.New("fault: injected task failure")

// Injector decides, deterministically, which task executions fail. Its
// verdict is a pure function of the seed, the job name, the task and how many
// times the submission has executed the task before: the same job fails at
// the same sites whichever door it came through and whatever ran beside it.
// Two selection modes compose:
//
//   - rate-based: a seeded hash of the (job name, task) site picks a `rate`
//     fraction of sites; each picked site fails its first `kills` executions
//     in a submission and then succeeds, so recovery always converges;
//   - targeted: Kill(task, n) fails the first n executions of a task by name
//     in every submission — pinpoint kills at a chosen attempt for tests.
//
// An Injector holds no state that Step writes, so it is safe for concurrent
// use once Kill is done; a nil *Injector injects nothing.
type Injector struct {
	seed    uint64
	rate    float64
	kills   int
	targets map[string]int // task → targeted kills a submission
}

// NewInjector builds an injector failing the first `kills` executions
// (default 1) of a `rate` fraction of task sites, selected by seed.
func NewInjector(seed uint64, rate float64, kills int) *Injector {
	if kills <= 0 {
		kills = 1
	}
	return &Injector{seed: seed, rate: rate, kills: kills, targets: make(map[string]int)}
}

// Kill fails the first n executions of the named task in every submission —
// the "kill this task at attempt 1..n" test hook. It writes the injector, so
// every Kill comes before the injector is handed to a runtime.
func (in *Injector) Kill(task string, n int) {
	if in == nil || n <= 0 {
		return
	}
	in.targets[task] += n
}

// Step is called by the runtime immediately before a task body runs; a
// non-nil return is the injected fault and the task fails as if its body
// had returned it. name is the job's name, task the task within it and
// executed how many times the submission has executed the task before. The
// error is built only for a step that fails: a task the injector passes
// costs a hash and no allocation.
func (in *Injector) Step(name, task string, executed int) error {
	if in == nil {
		return nil
	}
	if executed < in.targets[task] {
		return fmt.Errorf("%w: %s/%s (targeted)", ErrInjected, name, task)
	}
	if executed < in.kills && in.rate > 0 && in.hash(name, task) < in.rate {
		return fmt.Errorf("%w: %s/%s (kill %d/%d)", ErrInjected, name, task, executed+1, in.kills)
	}
	return nil
}

// hash maps the site name+"/"+task to [0,1) with FNV-1a over the site's
// bytes, mixed with the seed and finalized with a 64-bit avalanche. It reads
// the two halves in place, never joining them.
func (in *Injector) hash(name, task string) float64 {
	h := uint64(1469598103934665603) ^ (in.seed * 0x9e3779b97f4a7c15)
	h = fnv1a(fnv1a(h, name), "/")
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
