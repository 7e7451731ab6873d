package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataflow"
)

// IntegrityProgram builds the random program buildIntegrityDAG makes from
// rng, for tests outside the package: its job and its creators check.
func IntegrityProgram(t *testing.T, rng *rand.Rand, name string) (*dataflow.Job, func(*Report) error) {
	t.Helper()
	p := buildIntegrityDAG(t, rng, name)
	return p.job, p.creators
}

// IntegrityBudget is integrityBudget's seed count.
func IntegrityBudget() int {
	seeds, _ := integrityBudget()
	return seeds
}

// RelationFaultRate and RelationPolicy are the relations' faults and their
// recovery.
const RelationFaultRate = relationFaultRate

var RelationPolicy = relationPolicy

// RaceBuild is raceBuild.
const RaceBuild = raceBuild

// UpdateGolden is the package's -update flag, which also makes
// TestAllocLedger rewrite this build's allocation table.
var UpdateGolden = updateGolden

// WideJob is wideJob, the wide diamond of the wavefront tests.
func WideJob(name string, width int) *dataflow.Job { return wideJob(name, width) }
