package tsstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hbbp/internal/profstore"
)

// BenchmarkSeriesAppend measures folding one per-run profile into the
// newest raw window — the daemon's per-roll hot path.
func BenchmarkSeriesAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := epochProfileBench(rng)
	b.ReportAllocs()
	b.ResetTimer()
	var s Series
	for i := 0; i < b.N; i++ {
		s.AppendEpoch(uint64(i/64), p)
	}
}

// benchSeries is BenchmarkSeriesWindow's series: 256 epochs of
// freshly formatted profiles, downsampled by the default ladder.
func benchSeries() *Series {
	rng := rand.New(rand.NewSource(2))
	var s Series
	for e := uint64(0); e < 256; e++ {
		s.AppendEpoch(e, epochProfileBench(rng))
	}
	s.Downsample(DefaultRetention(), 255)
	return &s
}

// benchmarkWindow times s.Window(64, 255), the query the series
// benchmarks share.
func benchmarkWindow(b *testing.B, s *Series) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := s.Window(64, 255)
		if len(p.Ops) == 0 {
			b.Fatal("empty query")
		}
	}
}

// BenchmarkSeriesWindow measures a windowed query over a downsampled
// 256-epoch series, indexed first as a fleet server's read path
// indexes its tenant's series: the indexed windows' columns are summed
// and the rest merged. Each raw epoch holds 64 of the 768 block keys
// the series has seen (block lengths are drawn per epoch), so the
// memory rule leaves the raw windows unindexed and the folded ones
// indexed.
func BenchmarkSeriesWindow(b *testing.B) {
	s := benchSeries()
	s.Index(64, 255)
	benchmarkWindow(b, s)
}

// BenchmarkSeriesWindowUnindexed is BenchmarkSeriesWindow without the
// index: every window merges, as on a series no query has indexed. One
// untimed query first fills the merge's scratch pool.
func BenchmarkSeriesWindowUnindexed(b *testing.B) {
	s := benchSeries()
	s.Window(64, 255)
	benchmarkWindow(b, s)
}

// BenchmarkSeriesWindowFromSnapshots is BenchmarkSeriesWindow on the
// windows a fleet server's series holds: each epoch is one aggregator's
// snapshot of stored payloads decoded with LoadInterned, and each
// aggregator is made while the previous epoch's is still alive, as a
// server's overlapping live epochs are. So the windows share their
// symbol strings, where BenchmarkSeriesWindow's are freshly formatted
// per epoch. Eight payloads make every window dense in the series'
// keys, so after the index every window in the range is a column.
func BenchmarkSeriesWindowFromSnapshots(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	payloads := make([][]byte, 8)
	for i := range payloads {
		data, err := profstore.AppendSave(nil, epochProfileBench(rng))
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = data
	}
	var s Series
	var prev *profstore.Aggregator
	for e := uint64(0); e < 256; e++ {
		agg := profstore.NewAggregator()
		for k := 0; k < 4; k++ {
			in, err := profstore.LoadInterned(payloads[rng.Intn(len(payloads))])
			if err != nil {
				b.Fatal(err)
			}
			agg.IngestInterned(in)
		}
		s.AppendEpoch(e, agg.Snapshot())
		s.Downsample(DefaultRetention(), e)
		prev = agg
	}
	s.Index(64, 255)
	benchmarkWindow(b, &s)
	b.StopTimer()
	runtime.KeepAlive(prev)
}

// BenchmarkSeriesDownsample measures folding 256 raw epochs through
// the default ladder in one pass.
func BenchmarkSeriesDownsample(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var base Series
	for e := uint64(0); e < 256; e++ {
		base.AppendEpoch(e, epochProfileBench(rng))
	}
	base.Clone().Downsample(DefaultRetention(), 255) // fills the merge's scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := base.Clone()
		b.StartTimer()
		if s.Downsample(DefaultRetention(), 255) == 0 {
			b.Fatal("nothing folded")
		}
	}
}

// epochProfileBench builds a mid-size profile (32 ops, 64 blocks) —
// larger than epochProfile's so merge cost dominates bookkeeping.
func epochProfileBench(rng *rand.Rand) *profstore.Profile {
	p := &profstore.Profile{
		Workloads: []profstore.WorkloadWeight{{Name: "bench", Runs: 1}},
	}
	for i := 0; i < 32; i++ {
		p.Ops = append(p.Ops, profstore.OpMass{
			Mnemonic: fmt.Sprintf("op%02d", i),
			Ring:     uint8(i % 2),
			Mass:     uint64(1 + rng.Intn(1<<16)),
		})
	}
	for i := 0; i < 64; i++ {
		p.Blocks = append(p.Blocks, profstore.Block{
			Unit: "bench", Module: "a.out",
			Function: fmt.Sprintf("f%02d", i%16),
			Addr:     uint64(0x1000 + 64*i),
			Ring:     profstore.RingUser,
			Len:      uint32(1 + rng.Intn(12)),
			Count:    uint64(1 + rng.Intn(1<<12)),
		})
	}
	return profstore.Canonical(p)
}
