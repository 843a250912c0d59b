package collector_test

// The fast-path/reference parity suite: Collect's block-granularity
// retirement pipeline (cpu block events, PMU counter-overflow
// scheduling, the stream estimator beside the run) must be
// bit-identical to ReferenceCollect, the same pipeline on the
// per-instruction reference dispatch, across the workloads the
// evaluation leans on — including kernel code with live-patched trace
// points. This file lives in an external test package so it can drive
// the real workload generators.

import (
	"bytes"
	"reflect"
	"testing"

	"hbbp/internal/collector"
	"hbbp/internal/cpu"
	"hbbp/internal/program"
	"hbbp/internal/sde"
	"hbbp/internal/workloads"
)

// collectPair runs one workload twice with identical options — Collect
// on the block fast path vs ReferenceCollect — with both an SDE
// instrumenter and a counting oracle riding along, and returns
// everything both runs produced, serialized perffiles included.
func collectPair(t *testing.T, w *workloads.Workload, seed int64) (fast, ref *collector.Result, fastRaw, refRaw []byte,
	fastSDE, refSDE *sde.Instrumenter, fastOracle, refOracle *cpu.CountingListener) {
	t.Helper()
	type collectFunc func(*program.Program, *program.Function, collector.Options, ...cpu.Listener) (*collector.Result, error)
	run := func(name string, collect collectFunc) (*collector.Result, []byte, *sde.Instrumenter, *cpu.CountingListener) {
		in := sde.New(w.Prog)
		oracle := cpu.NewCountingListener(w.Prog)
		var raw bytes.Buffer
		res, err := collect(w.Prog, w.Entry, collector.Options{
			Class: w.Class, Scale: w.Scale, Seed: seed, Repeat: w.Repeat, RawOut: &raw,
		}, in, oracle)
		if err != nil {
			t.Fatalf("%s (%s): %v", w.Name, name, err)
		}
		return res, raw.Bytes(), in, oracle
	}
	fast, fastRaw, fastSDE, fastOracle = run("fast path", collector.Collect)
	ref, refRaw, refSDE, refOracle = run("reference", collector.ReferenceCollect)
	return
}

// TestFastPathParityAcrossWorkloads asserts bit-identical collection
// results on the Test40 and kernel workloads (plus the short-block
// Hydro-post shape): same EBS IPs, same LBR stacks, same lost counts,
// same run statistics, and byte-identical serialized perffiles.
func TestFastPathParityAcrossWorkloads(t *testing.T) {
	for _, name := range []string{"test40", "kernel-prime", "hydro-post"} {
		w, err := workloads.Default().Build(name)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		w = w.Scaled(0.1)
		t.Run(w.Name, func(t *testing.T) {
			for _, seed := range []int64{7, 42} {
				fast, ref, fastRaw, refRaw, fastSDE, refSDE, fastOracle, refOracle := collectPair(t, w, seed)

				if !reflect.DeepEqual(fast.EBSIPs, ref.EBSIPs) {
					t.Errorf("seed %d: EBS IPs diverged (%d fast, %d reference)",
						seed, len(fast.EBSIPs), len(ref.EBSIPs))
				}
				if !reflect.DeepEqual(fast.Stacks, ref.Stacks) {
					t.Errorf("seed %d: LBR stacks diverged (%d fast, %d reference)",
						seed, len(fast.Stacks), len(ref.Stacks))
				}
				if fast.EBSPeriod != ref.EBSPeriod || fast.LBRPeriod != ref.LBRPeriod || fast.Scale != ref.Scale {
					t.Errorf("seed %d: periods or scale diverged: fast (%d, %d, %d), reference (%d, %d, %d)",
						seed, fast.EBSPeriod, fast.LBRPeriod, fast.Scale, ref.EBSPeriod, ref.LBRPeriod, ref.Scale)
				}
				if fast.Stats != ref.Stats {
					t.Errorf("seed %d: stats diverged:\nfast %+v\nref  %+v", seed, fast.Stats, ref.Stats)
				}
				if fast.PMIs != ref.PMIs || fast.LostEBS != ref.LostEBS || fast.LostLBR != ref.LostLBR {
					t.Errorf("seed %d: PMI accounting diverged: fast (%d, %d, %d), reference (%d, %d, %d)",
						seed, fast.PMIs, fast.LostEBS, fast.LostLBR, ref.PMIs, ref.LostEBS, ref.LostLBR)
				}
				if !bytes.Equal(fastRaw, refRaw) {
					t.Errorf("seed %d: serialized perffiles diverged (%d vs %d bytes)",
						seed, len(fastRaw), len(refRaw))
				}
				if len(fast.EBSIPs) == 0 || len(fast.Stacks) == 0 {
					t.Errorf("seed %d: empty collection (ips=%d stacks=%d) — parity vacuous",
						seed, len(fast.EBSIPs), len(fast.Stacks))
				}

				if !reflect.DeepEqual(fastSDE.BBECs(), refSDE.BBECs()) {
					t.Errorf("seed %d: SDE BBECs diverged", seed)
				}
				if !reflect.DeepEqual(fastSDE.Mnemonics(), refSDE.Mnemonics()) {
					t.Errorf("seed %d: SDE mnemonics diverged", seed)
				}
				if fastSDE.ExtraCycles() != refSDE.ExtraCycles() {
					t.Errorf("seed %d: SDE cost diverged: %d fast, %d reference",
						seed, fastSDE.ExtraCycles(), refSDE.ExtraCycles())
				}
				if !reflect.DeepEqual(fastOracle.Exec, refOracle.Exec) {
					t.Errorf("seed %d: oracle BBECs diverged", seed)
				}
			}
		})
	}
}
