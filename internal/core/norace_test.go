//go:build !race

package core

// raceBuild reports whether the race detector is on: tests that explore
// interleavings run a larger budget under it.
const raceBuild = false
