//go:build race

package main

// raceEnabled reports a build with the race detector, which slows the
// workloads several-fold.
const raceEnabled = true
