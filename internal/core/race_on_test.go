//go:build race

package core

// raceBuild reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of what is put back, so allocation counts are the
// detector's and not the program's: the allocation budgets are relaxed by
// raceSlack, and the workloads still run.
const raceBuild = true
