//go:build !race

package profstore

import "testing"

// TestMergeSteadyStateAllocs pins the scratch pool's payoff: once the
// pooled profiles have grown, a merge of k >= 3 canonical inputs
// allocates only its result — the profile and its three sections.
// The race detector makes sync.Pool drop items at random, so this pin
// builds only without it.
func TestMergeSteadyStateAllocs(t *testing.T) {
	for _, k := range []int{3, 4, 8, 33, 100} {
		in := benchProfiles(k)
		for i := 0; i < 3; i++ {
			Merge(in...)
		}
		if got := testing.AllocsPerRun(50, func() { Merge(in...) }); got > 4 {
			t.Errorf("Merge of %d: %v allocs per merge, want at most 4", k, got)
		}
	}
}
