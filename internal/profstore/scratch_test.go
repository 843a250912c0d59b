package profstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestMergeResultsNeverShareScratch pins Merge's copy-out contract:
// results are the caller's own, whatever merges run after them. Saved
// results must re-save to the same bytes after many later merges,
// eight goroutines' worth included; overwriting every row of a result
// must not reach a later merge; and a result keeps no scratch buffer's
// spare room for rows.
func TestMergeResultsNeverShareScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type kept struct {
		what  string
		p     *Profile
		saved []byte
	}
	var results []kept
	keep := func(what string, in ...*Profile) *Profile {
		p := Merge(in...)
		results = append(results, kept{what, p, mustBytes(t, p)})
		return p
	}
	for _, n := range []int{2, 3, 4, 7, 16, 33} {
		keep(fmt.Sprintf("Merge of %d", n), oracleInputs(rng, n, false)...)
	}

	// A result of k = 2 fully overlapping inputs holds half the rows
	// its scratch profile was sized for; it must not keep that room.
	p := benchProfiles(1)[0]
	self := keep("Merge(p, p)", p, p)
	if cap(self.Blocks) >= 2*len(p.Blocks) || cap(self.Ops) >= 2*len(p.Ops) {
		t.Errorf("Merge(p, p) keeps spare capacity: %d/%d blocks, %d/%d ops",
			len(self.Blocks), cap(self.Blocks), len(self.Ops), cap(self.Ops))
	}

	churn := func(rng *rand.Rand) {
		for i := 0; i < 40; i++ {
			in := oracleInputs(rng, rng.Intn(24), rng.Intn(2) == 0)
			got := Merge(in...)
			// Scribble over every row this result holds, so a later
			// merge handed the same memory would be caught.
			for j := range got.Blocks {
				got.Blocks[j] = Block{Unit: "scribbled", Count: 1}
			}
			for j := range got.Ops {
				got.Ops[j] = OpMass{Mnemonic: "scribbled", Mass: 1}
			}
			for j := range got.Workloads {
				got.Workloads[j] = WorkloadWeight{Name: "scribbled", Runs: 1}
			}
		}
	}
	churn(rng)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			churn(rand.New(rand.NewSource(seed)))
		}(int64(100 + g))
	}
	wg.Wait()

	for _, r := range results {
		if !bytes.Equal(mustBytes(t, r.p), r.saved) {
			t.Errorf("%s: result changed after later merges", r.what)
		}
	}

	// Overwrite one result, then check merges made after it.
	first := Merge(oracleInputs(rng, 9, false)...)
	for i := 0; i < 20; i++ {
		in := oracleInputs(rng, 2+rng.Intn(12), false)
		got := Merge(in...)
		for j := range first.Blocks {
			first.Blocks[j].Count = 424242
		}
		for j := range first.Ops {
			first.Ops[j].Mass = 424242
		}
		equalProfiles(t, fmt.Sprintf("merge %d after a scribbled result", i), got, oracleMerge(in...))
		first = got
	}
}

// TestConcurrentMergeMatchesOracle pins Merge to the oracle while
// eight goroutines merge at once, so they draw on the shared scratch
// pool together: every fan-in from 0 to 40, overlapping and disjoint
// keys, mixed-shape inputs.
func TestConcurrentMergeMatchesOracle(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for _, disjoint := range []bool{false, true} {
				for n := 0; n <= 40; n++ {
					in := oracleInputs(rng, n, disjoint)
					what := fmt.Sprintf("goroutine %d: Merge of %d (disjoint=%v)", g, n, disjoint)
					got := Merge(in...)
					if !isCanonical(got) {
						t.Errorf("%s: result is not canonical", what)
					}
					equalProfiles(t, what, got, oracleMerge(in...))
				}
			}
		}(g)
	}
	wg.Wait()
}
