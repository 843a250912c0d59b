package profstore

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// oracleMerge is the reference merge the package's merge paths must
// match: sum every row into a map keyed by its identity, drop the keys
// whose total is zero, then sort. It shares no code with the package's
// merge, canonicalization or ordering.
func oracleMerge(profiles ...*Profile) *Profile {
	runs := map[string]uint64{}
	counts := map[Block]uint64{}
	masses := map[OpMass]uint64{}
	for _, p := range profiles {
		if p == nil {
			continue
		}
		for _, w := range p.Workloads {
			runs[w.Name] += w.Runs
		}
		for _, b := range p.Blocks {
			k := b
			k.Count = 0
			counts[k] += b.Count
		}
		for _, o := range p.Ops {
			k := o
			k.Mass = 0
			masses[k] += o.Mass
		}
	}
	out := &Profile{}
	for name, n := range runs {
		if n != 0 {
			out.Workloads = append(out.Workloads, WorkloadWeight{Name: name, Runs: n})
		}
	}
	for k, n := range counts {
		if n != 0 {
			k.Count = n
			out.Blocks = append(out.Blocks, k)
		}
	}
	for k, n := range masses {
		if n != 0 {
			k.Mass = n
			out.Ops = append(out.Ops, k)
		}
	}
	slices.SortFunc(out.Workloads, func(a, b WorkloadWeight) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(out.Blocks, func(a, b Block) int {
		return cmp.Or(strings.Compare(a.Unit, b.Unit), strings.Compare(a.Module, b.Module),
			strings.Compare(a.Function, b.Function), cmp.Compare(a.Addr, b.Addr),
			cmp.Compare(a.Ring, b.Ring), cmp.Compare(a.Len, b.Len))
	})
	slices.SortFunc(out.Ops, func(a, b OpMass) int {
		return cmp.Or(strings.Compare(a.Mnemonic, b.Mnemonic), cmp.Compare(a.Ring, b.Ring))
	})
	return out
}

// Input shapes for oracleInput: one canonical, three that each break
// canonical form a different way.
const (
	shapeCanonical = iota
	shapeUnsorted
	shapeDuplicates
	shapeZeroMass
	numShapes
)

// oracleInput builds a profile whose block keys all carry unit, in the
// given shape. Callers pick the unit: one shared pool of units gives
// overlapping key sets, a distinct unit per input gives disjoint ones.
func oracleInput(rng *rand.Rand, unit string, shape int) *Profile {
	raw := &Profile{Workloads: []WorkloadWeight{{Name: unit, Runs: 1 + uint64(rng.Intn(3))}}}
	for i, n := 0, rng.Intn(24); i < n; i++ {
		raw.Blocks = append(raw.Blocks, Block{
			Unit: unit, Module: []string{"a.out", "libm.so", "vmlinux"}[rng.Intn(3)],
			Function: []string{"main", "step", "solve"}[rng.Intn(3)],
			Addr:     uint64(rng.Intn(16)) * 16, Ring: uint8(rng.Intn(2)),
			Len: uint32(1 + rng.Intn(4)), Count: 1 + uint64(rng.Intn(1000)),
		})
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		raw.Ops = append(raw.Ops, OpMass{
			Mnemonic: []string{"add", "mov", "vaddps", "div", "jz"}[rng.Intn(5)],
			Ring:     uint8(rng.Intn(2)), Mass: 1 + uint64(rng.Intn(100000)),
		})
	}
	p := oracleMerge(raw)
	switch shape {
	case shapeUnsorted:
		rng.Shuffle(len(p.Workloads), func(i, j int) { p.Workloads[i], p.Workloads[j] = p.Workloads[j], p.Workloads[i] })
		rng.Shuffle(len(p.Blocks), func(i, j int) { p.Blocks[i], p.Blocks[j] = p.Blocks[j], p.Blocks[i] })
		rng.Shuffle(len(p.Ops), func(i, j int) { p.Ops[i], p.Ops[j] = p.Ops[j], p.Ops[i] })
	case shapeDuplicates:
		// Split the first row of each section into two adjacent rows.
		p.Workloads = append(p.Workloads, WorkloadWeight{Name: p.Workloads[0].Name, Runs: 2})
		if len(p.Blocks) > 0 {
			b := p.Blocks[0]
			b.Count = 7
			p.Blocks = slices.Insert(p.Blocks, 1, b)
		}
		if len(p.Ops) > 0 {
			o := p.Ops[0]
			o.Mass = 11
			p.Ops = slices.Insert(p.Ops, 0, o)
		}
	case shapeZeroMass:
		p.Workloads = append(p.Workloads, WorkloadWeight{Name: "idle-" + unit})
		p.Blocks = append(p.Blocks, Block{Unit: unit, Module: "zero.so", Function: "never", Len: 1})
		p.Ops = append([]OpMass{{Mnemonic: "nop"}}, p.Ops...)
	}
	return p
}

// oracleInputs builds n inputs of mixed shapes. disjoint gives every
// input its own unit, so no two share a block key.
func oracleInputs(rng *rand.Rand, n int, disjoint bool) []*Profile {
	out := make([]*Profile, n)
	for i := range out {
		unit := fmt.Sprintf("svc%d", rng.Intn(3))
		if disjoint {
			unit = fmt.Sprintf("unit%03d", i)
		}
		out[i] = oracleInput(rng, unit, rng.Intn(numShapes))
	}
	return out
}

// TestMergeMatchesOracle pins Merge to the oracle for every fan-in from
// 0 to 40 — odd ones included, so the tournament's carried odd input is
// covered — over mixed-shape inputs with overlapping and disjoint keys.
func TestMergeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, disjoint := range []bool{false, true} {
		for n := 0; n <= 40; n++ {
			in := oracleInputs(rng, n, disjoint)
			what := fmt.Sprintf("Merge of %d (disjoint=%v)", n, disjoint)
			got := Merge(in...)
			if !isCanonical(got) {
				t.Errorf("%s: result is not canonical", what)
			}
			equalProfiles(t, what, got, oracleMerge(in...))
		}
	}
}

// TestCanonicalPathsMatchOracle pins every entry point that
// canonicalizes — Canonical, Intern and the decoder's fallback for
// streams this package would never write — to the oracle.
func TestCanonicalPathsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for shape := 0; shape < numShapes; shape++ {
		for i := 0; i < 10; i++ {
			p := oracleInput(rng, "svc", shape)
			want := oracleMerge(p)
			equalProfiles(t, fmt.Sprintf("Canonical, shape %d", shape), Canonical(p), want)
			equalProfiles(t, fmt.Sprintf("Intern, shape %d", shape), Intern(p).Profile(), want)
			// Encode p's rows as they stand, bypassing Save's
			// canonicalization, then decode.
			tab := &symLookup{ids: map[string]uint32{}}
			raw := &Interned{}
			for _, w := range p.Workloads {
				raw.workloads = append(raw.workloads, iWorkload{name: tab.id(w.Name), runs: w.Runs})
			}
			for _, b := range p.Blocks {
				raw.blocks = append(raw.blocks, iBlock{
					unit: tab.id(b.Unit), module: tab.id(b.Module), function: tab.id(b.Function),
					addr: b.Addr, ring: b.Ring, blen: b.Len, count: b.Count,
				})
			}
			for _, o := range p.Ops {
				raw.ops = append(raw.ops, iOp{mnemonic: tab.id(o.Mnemonic), ring: o.Ring, mass: o.Mass})
			}
			raw.syms = tab.syms
			loaded, err := LoadBytes(raw.appendStored(nil))
			if err != nil {
				t.Fatalf("LoadBytes of a shape-%d stream: %v", shape, err)
			}
			equalProfiles(t, fmt.Sprintf("LoadBytes, shape %d", shape), loaded, want)
		}
	}
}

// TestWeightedMatchesOracle pins Weighted(k) to k copies merged by the
// oracle, k = 0 included: zero copies is the empty profile.
func TestWeightedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := Canonical(oracleInput(rng, "povray", shapeCanonical))
	for k := 0; k <= 3; k++ {
		copies := make([]*Profile, k)
		for i := range copies {
			copies[i] = p
		}
		got := p.Weighted(uint64(k))
		if !isCanonical(got) {
			t.Errorf("Weighted(%d) is not canonical: %+v", k, got)
		}
		equalProfiles(t, fmt.Sprintf("Weighted(%d)", k), got, oracleMerge(copies...))
	}
}

// TestAggregatorMatchesOracle pins the aggregator to the oracle after
// eight goroutines ingest mixed-shape profiles, half through Ingest and
// half through IngestInterned.
func TestAggregatorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	profiles := append(oracleInputs(rng, 48, false), oracleInputs(rng, 48, true)...)
	agg := NewAggregator()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if i%2 == 0 {
					agg.Ingest(profiles[i])
				} else {
					agg.IngestInterned(Intern(profiles[i]))
				}
			}
		}()
	}
	for i := range profiles {
		next <- i
	}
	close(next)
	wg.Wait()
	equalProfiles(t, "aggregator snapshot", agg.Snapshot(), oracleMerge(profiles...))
}

// TestAggregatorSnapshotDropsWrappedRows pins Snapshot's canonical
// contract when a key's summed mass wraps 2^64 to zero: the key has no
// row, as in Canonical, while the keys beside it keep theirs.
func TestAggregatorSnapshotDropsWrappedRows(t *testing.T) {
	half := &Profile{
		Workloads: []WorkloadWeight{{Name: "wrap", Runs: 1 << 63}, {Name: "gcc", Runs: 1}},
		Blocks: []Block{
			{Unit: "gcc", Module: "a.out", Function: "f", Addr: 0x10, Len: 1, Count: 1 << 63},
			{Unit: "gcc", Module: "a.out", Function: "g", Addr: 0x20, Len: 1, Count: 3},
		},
		Ops: []OpMass{{Mnemonic: "add", Mass: 5}, {Mnemonic: "wrap", Mass: 1 << 63}},
	}
	agg := NewAggregator()
	agg.Ingest(Canonical(half))
	agg.IngestInterned(Intern(Canonical(half)))
	got := agg.Snapshot()
	if !isCanonical(got) {
		t.Fatalf("snapshot with wrapped masses is not canonical: %+v", got)
	}
	want := Canonical(&Profile{
		Workloads: []WorkloadWeight{{Name: "gcc", Runs: 2}},
		Blocks:    []Block{{Unit: "gcc", Module: "a.out", Function: "g", Addr: 0x20, Len: 1, Count: 6}},
		Ops:       []OpMass{{Mnemonic: "add", Mass: 10}},
	})
	equalProfiles(t, "snapshot with wrapped masses", got, want)
}
