package tsstore

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"hbbp/internal/profstore"
)

// TestWrappedSumsAgreeEverywhere pins the one rule for a key whose
// summed mass wraps 2^64 to zero: every producer leaves the key out.
// Two profiles that each hold keys at 2^63 go through Merge,
// MergeCanonical, an aggregator snapshot, an indexed and an unindexed
// Series.Window, and Weighted; every answer is canonical, equal row for
// row, and saves to the same bytes.
func TestWrappedSumsAgreeEverywhere(t *testing.T) {
	half := func(n uint64) *profstore.Profile {
		return profstore.Canonical(&profstore.Profile{
			Workloads: []profstore.WorkloadWeight{{Name: "gcc", Runs: n}, {Name: "wrap", Runs: 1 << 63}},
			Blocks: []profstore.Block{
				{Unit: "gcc", Module: "a.out", Function: "f", Addr: 0x10, Len: 1, Count: 1 << 63},
				{Unit: "gcc", Module: "a.out", Function: "g", Addr: 0x20, Len: 1, Count: n},
			},
			Ops: []profstore.OpMass{{Mnemonic: "add", Mass: n}, {Mnemonic: "wrap", Mass: 1 << 63}},
		})
	}
	a, b := half(1), half(2)
	want := &profstore.Profile{
		Workloads: []profstore.WorkloadWeight{{Name: "gcc", Runs: 3}},
		Blocks:    []profstore.Block{{Unit: "gcc", Module: "a.out", Function: "g", Addr: 0x20, Len: 1, Count: 3}},
		Ops:       []profstore.OpMass{{Mnemonic: "add", Mass: 3}},
	}

	agg := profstore.NewAggregator()
	agg.Ingest(a)
	agg.Ingest(b)
	var indexed, unindexed Series
	for e, p := range []*profstore.Profile{a, b} {
		indexed.AppendEpoch(uint64(e), p)
		unindexed.AppendEpoch(uint64(e), p)
	}
	indexed.Index(0, 1)
	for _, w := range indexed.windows {
		if w.col == nil {
			t.Fatalf("window %s is not indexed", w.span)
		}
	}
	byColumn, _ := indexed.Window(0, 1)
	byMerge, _ := unindexed.Window(0, 1)

	answers := []struct {
		name string
		got  *profstore.Profile
	}{
		{"Merge", profstore.Merge(a, b)},
		{"MergeCanonical", profstore.MergeCanonical(a, b)},
		{"Aggregator.Snapshot", agg.Snapshot()},
		{"indexed Window", byColumn},
		{"unindexed Window", byMerge},
	}
	check := func(name string, got, want *profstore.Profile) {
		t.Helper()
		c := profstore.Canonical(got)
		if !slices.Equal(got.Workloads, c.Workloads) || !slices.Equal(got.Blocks, c.Blocks) || !slices.Equal(got.Ops, c.Ops) {
			t.Errorf("%s is not canonical: %+v", name, got)
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
		if !bytes.Equal(profileBytes(t, got), profileBytes(t, want)) {
			t.Errorf("%s saves to different bytes", name)
		}
	}
	for _, ans := range answers {
		check(ans.name, ans.got, want)
	}
	// Weighted(k) is k copies merged, wrapped products included.
	check("Weighted(2)", a.Weighted(2), &profstore.Profile{
		Workloads: []profstore.WorkloadWeight{{Name: "gcc", Runs: 2}},
		Blocks:    []profstore.Block{{Unit: "gcc", Module: "a.out", Function: "g", Addr: 0x20, Len: 1, Count: 2}},
		Ops:       []profstore.OpMass{{Mnemonic: "add", Mass: 2}},
	})
	check("Merge of two copies", profstore.Merge(a, a), a.Weighted(2))
}
