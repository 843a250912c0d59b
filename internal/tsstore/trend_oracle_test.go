package tsstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hbbp/internal/profstore"
)

// sprintfTrend is the reference trend scan: Trend as it stood when it
// formatted a function's name with fmt.Sprintf for every block and
// summed its mass under that string. Trend must report exactly what
// this does, down to the bits of every share.
func sprintfTrend(s *Series, k int, threshold float64) *TrendReport {
	rep := &TrendReport{Threshold: threshold}
	tail := s.windows[len(s.windows)-k:]
	for _, w := range tail {
		rep.Windows = append(rep.Windows, w.span)
	}
	type seriesKey struct {
		kind TrendKind
		name string
		ring uint8
	}
	shares := make(map[seriesKey][]float64)
	at := func(key seriesKey, wi int, share float64) {
		if shares[key] == nil {
			shares[key] = make([]float64, k)
		}
		shares[key][wi] = share
	}
	for wi, w := range tail {
		if opTotal := float64(w.prof.TotalMass()); opTotal > 0 {
			for _, o := range w.prof.Ops {
				at(seriesKey{TrendOp, o.Mnemonic, o.Ring}, wi, float64(o.Mass)/opTotal)
			}
		}
		var blockTotal float64
		for i := range w.prof.Blocks {
			blockTotal += float64(w.prof.Blocks[i].Mass())
		}
		if blockTotal > 0 {
			fn := make(map[string]float64)
			for i := range w.prof.Blocks {
				b := &w.prof.Blocks[i]
				fn[fmt.Sprintf("%s/%s.%s", b.Unit, b.Module, b.Function)] += float64(b.Mass())
			}
			for name, mass := range fn {
				at(seriesKey{TrendFunction, name, 0}, wi, mass/blockTotal)
			}
		}
	}
	for key, sl := range shares {
		delta := sl[k-1] - sl[0]
		if !monotonic(sl) || abs(delta) < threshold {
			continue
		}
		e := TrendEntry{Kind: key.kind, Name: key.name, Ring: key.ring, Shares: sl, Delta: delta}
		if key.kind == TrendOp {
			rep.Ops = append(rep.Ops, e)
		} else {
			rep.Functions = append(rep.Functions, e)
		}
	}
	for _, sl := range [][]TrendEntry{rep.Ops, rep.Functions} {
		sort.Slice(sl, func(i, j int) bool {
			if di, dj := abs(sl[i].Delta), abs(sl[j].Delta); di != dj {
				return di > dj
			}
			if sl[i].Name != sl[j].Name {
				return sl[i].Name < sl[j].Name
			}
			return sl[i].Ring < sl[j].Ring
		})
	}
	return rep
}

// trendOracleProfile builds one epoch's profile over several units.
// Its symbols include pairs that render to the same function name
// ("a.b" + "c" and "a" + "b.c"), so summing by name and summing by
// (unit, module, function) would disagree.
func trendOracleProfile(rng *rand.Rand) *profstore.Profile {
	syms := [][2]string{{"a.out", "main"}, {"a.b", "c"}, {"a", "b.c"}, {"libm.so", "exp"}, {"libm", "so.exp"}, {"vmlinux", "schedule"}}
	p := &profstore.Profile{Workloads: []profstore.WorkloadWeight{{Name: "w", Runs: 1}}}
	for i, n := 0, 1+rng.Intn(60); i < n; i++ {
		sym := syms[rng.Intn(len(syms))]
		p.Blocks = append(p.Blocks, profstore.Block{
			Unit: fmt.Sprintf("svc%d", rng.Intn(3)), Module: sym[0], Function: sym[1],
			Addr: uint64(rng.Intn(32)) * 16, Ring: uint8(rng.Intn(2)),
			Len: uint32(1 + rng.Intn(9)), Count: 1 + uint64(rng.Intn(5000)),
		})
	}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		p.Ops = append(p.Ops, profstore.OpMass{
			Mnemonic: []string{"add", "mov", "vaddps", "div", "jz"}[rng.Intn(5)],
			Ring:     uint8(rng.Intn(2)), Mass: 1 + uint64(rng.Intn(100000)),
		})
	}
	return profstore.Canonical(p)
}

// TestTrendMatchesSprintfKeyed pins Trend to sprintfTrend over random
// multi-unit series: the reports must be deeply equal, every share bit
// included, for short and long scans and for a threshold low enough
// to flag nearly every monotonic mover.
func TestTrendMatchesSprintfKeyed(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		var s Series
		epochs := 2 + rng.Intn(7)
		for e := 0; e < epochs; e++ {
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				s.AppendEpoch(uint64(e), trendOracleProfile(rng))
			}
		}
		for _, k := range []int{2, 3, epochs} {
			if k > epochs {
				continue
			}
			for _, threshold := range []float64{1e-12, DefaultTrendThreshold} {
				got, err := s.Trend(TrendOptions{K: k, Threshold: threshold})
				if err != nil {
					t.Fatal(err)
				}
				if want := sprintfTrend(&s, k, threshold); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, k=%d, threshold=%g: Trend = %+v, want %+v", trial, k, threshold, got, want)
				}
			}
		}
	}
}
