package profstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// sign folds a three-way compare result to -1, 0 or 1.
func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// lessSign is the three-way order the Less functions define.
func lessSign[T any](less func(a, b *T) bool, a, b *T) int {
	switch {
	case less(a, b):
		return -1
	case less(b, a):
		return 1
	}
	return 0
}

// keyString draws from a pool built to trip a string compare: the
// empty string, strings that are prefixes of one another, and each
// value half the time as a fresh copy, so equal content arrives in
// different backing arrays as well as in the same one.
func keyString(rng *rand.Rand) string {
	s := []string{"", "a", "ab", "abc", "abd", "b", "libm.so", "libm.so.6"}[rng.Intn(8)]
	if rng.Intn(2) == 0 {
		return strings.Clone(s)
	}
	return s
}

// TestKeyCmpAgreesWithLess pins blockKeyCmp and opKeyCmp to the order
// of blockKeyLess and opKeyLess, sign for sign, over every ordered pair
// of a pool dense in ties: few distinct strings, and Addr, Ring and Len
// drawn from two values each, so most pairs tie on several fields and
// many on all of them.
func TestKeyCmpAgreesWithLess(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	blocks := make([]Block, 160)
	for i := range blocks {
		blocks[i] = Block{
			Unit: keyString(rng), Module: keyString(rng), Function: keyString(rng),
			Addr: uint64(rng.Intn(2)) << 40, Ring: uint8(rng.Intn(2)), Len: uint32(rng.Intn(2)) + 1,
			Count: uint64(rng.Intn(3)),
		}
	}
	// Same content, different backing arrays, and every field tied.
	blocks = append(blocks, Block{Unit: strings.Clone("abc"), Module: "ab", Function: "", Len: 1},
		Block{Unit: "abc", Module: strings.Clone("ab"), Function: strings.Clone(""), Len: 1})
	for i := range blocks {
		for j := range blocks {
			a, b := &blocks[i], &blocks[j]
			if got, want := sign(blockKeyCmp(a, b)), lessSign(blockKeyLess, a, b); got != want {
				t.Fatalf("blockKeyCmp(%v, %v) sign %d, blockKeyLess order %d", a, b, got, want)
			}
		}
	}
	ops := make([]OpMass, 80)
	for i := range ops {
		ops[i] = OpMass{Mnemonic: keyString(rng), Ring: uint8(rng.Intn(2)), Mass: uint64(rng.Intn(3))}
	}
	for i := range ops {
		for j := range ops {
			a, b := &ops[i], &ops[j]
			if got, want := sign(opKeyCmp(a, b)), lessSign(opKeyLess, a, b); got != want {
				t.Fatalf("opKeyCmp(%+v, %+v) sign %d, opKeyLess order %d", *a, *b, got, want)
			}
		}
	}
}

// TestMergeCanonicalMatchesOracle runs TestMergeMatchesOracle's fan-in
// 0 to 40 sweep against MergeCanonical, on inputs made canonical by the
// oracle, with nil inputs mixed in; the inputs must come back
// untouched, since MergeCanonical never copies them before merging.
func TestMergeCanonicalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, disjoint := range []bool{false, true} {
		for n := 0; n <= 40; n++ {
			in := oracleInputs(rng, n, disjoint)
			var before []*Profile
			for i := range in {
				if rng.Intn(8) == 0 {
					in[i] = nil
					continue
				}
				in[i] = oracleMerge(in[i])
				before = append(before, in[i].Clone())
			}
			what := fmt.Sprintf("MergeCanonical of %d (disjoint=%v)", n, disjoint)
			got := MergeCanonical(in...)
			if !isCanonical(got) {
				t.Errorf("%s: result is not canonical", what)
			}
			equalProfiles(t, what, got, oracleMerge(in...))
			k := 0
			for _, p := range in {
				if p != nil {
					equalProfiles(t, what+": input after the merge", p, before[k])
					k++
				}
			}
		}
	}
}

// TestAggregatorSnapshotsShareSymbolStrings pins the shared symbol
// strings: two aggregators fed separate decodes of one payload — each
// decode with its own string copies — hand out snapshots whose strings
// share their bytes, with full collections between the two, as long
// as the first aggregator is alive. That sharing is what lets a merge
// of two epochs' snapshots compare strings by pointer.
func TestAggregatorSnapshotsShareSymbolStrings(t *testing.T) {
	// Symbol names of realistic length; each decode below makes its own
	// copies of them.
	raw := &Profile{Workloads: []WorkloadWeight{{Name: "fleet-frontend-service", Runs: 1}}}
	for i := 0; i < 64; i++ {
		raw.Blocks = append(raw.Blocks, Block{
			Unit: "fleet-frontend-service", Module: []string{"/usr/lib/libfleet-runtime.so.6", "vmlinux-6.8.0-generic"}[i%2],
			Function: fmt.Sprintf("fleet/internal/server.(*Conn).handle%02d", i%8),
			Addr:     uint64(i) * 64, Len: 4, Count: uint64(1 + i),
		})
	}
	for i, m := range []string{"vfmadd231ps-ymm-ymm-mem", "add", "vaddps"} {
		raw.Ops = append(raw.Ops, OpMass{Mnemonic: m, Mass: uint64(10 + i)})
	}
	payload, err := AppendSave(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(agg *Aggregator) *Profile {
		in, err := LoadInterned(payload)
		if err != nil {
			t.Fatal(err)
		}
		agg.IngestInterned(in)
		return agg.Snapshot()
	}
	first := NewAggregator()
	a := snapshot(first)
	// The first aggregator's handles keep its copies canonical through
	// full collections.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	second := NewAggregator()
	b := snapshot(second)
	runtime.KeepAlive(first)

	same := func(what string, x, y string) {
		t.Helper()
		if x != y {
			t.Fatalf("%s: %q vs %q: snapshots differ", what, x, y)
		}
		if unsafe.StringData(x) != unsafe.StringData(y) {
			t.Fatalf("%s %q: the two epochs' snapshots hold separate copies", what, x)
		}
	}
	if len(a.Blocks) == 0 || len(a.Blocks) != len(b.Blocks) || len(a.Ops) != len(b.Ops) {
		t.Fatalf("snapshots have %d/%d blocks and %d/%d ops", len(a.Blocks), len(b.Blocks), len(a.Ops), len(b.Ops))
	}
	for i := range a.Workloads {
		same("workload", a.Workloads[i].Name, b.Workloads[i].Name)
	}
	for i := range a.Blocks {
		same("unit", a.Blocks[i].Unit, b.Blocks[i].Unit)
		same("module", a.Blocks[i].Module, b.Blocks[i].Module)
		same("function", a.Blocks[i].Function, b.Blocks[i].Function)
	}
	for i := range a.Ops {
		same("mnemonic", a.Ops[i].Mnemonic, b.Ops[i].Mnemonic)
	}
}
