package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"hbbp/internal/telemetry"
)

// layerInput is everything a traced run measured.
type layerInput struct {
	spans         []span
	reads         []read // registries around each traced interval
	acc           accuracy
	windows       int
	shed          uint64
	plain, traced []*phase // the untraced and traced quarters of the measured time
	legs          *phase
}

// stage totals the spans of one name.
type stage struct {
	n     int
	dur   int64 // ns
	count int64
	durMs []float64
}

func (st *stage) nsPerKinst() float64 { return float64(st.dur) / (float64(st.count) / 1e3) }
func (st *stage) meanUs() float64     { return float64(st.dur) / float64(st.n) / 1e3 }
func (st *stage) meanMs() float64     { return float64(st.dur) / float64(st.n) / 1e6 }

// perLayer derives the per-layer metrics. Every stage must have spans:
// a traced run covers both paths (see fixture.legs), so a missing stage
// is a benchmark bug and fails the run rather than reporting a zero.
func perLayer(in layerInput) (map[string]metric, error) {
	stages := map[string]*stage{}
	for i := range in.spans {
		s := &in.spans[i]
		st := stages[s.Name]
		if st == nil {
			st = &stage{}
			stages[s.Name] = st
		}
		st.n++
		st.dur += s.dur()
		st.count += s.Count
		st.durMs = append(st.durMs, float64(s.dur())/1e6)
	}
	var problems []string
	get := func(name string) *stage {
		st := stages[name]
		if st == nil || st.count == 0 {
			problems = append(problems, "no "+name+" spans")
			return &stage{n: 1, count: 1}
		}
		return st
	}
	p50 := func(name string) float64 {
		v, err := percentile(get(name).durMs, 50)
		if err != nil {
			problems = append(problems, name+": "+err.Error())
		}
		return v
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// The paper's path.
	put("workloads.build_ms", float64(get("workloads.build").dur)/1e6, "ms")
	collect, clean := get("collector.collect").nsPerKinst(), get("cpu.clean").nsPerKinst()
	put("collector.collect_ns_per_kinst", collect, "ns/kinst")
	put("cpu.clean_ns_per_kinst", clean, "ns/kinst")
	put("pmu.sampling_ns_per_kinst", collect-clean, "ns/kinst")
	put("sde.ns_per_kinst", get("sde.run").nsPerKinst(), "ns/kinst")
	put("core.analyze_ns_per_kinst", get("core.analyze").nsPerKinst(), "ns/kinst")
	put("bbec.from_ebs_ns_per_kinst", get("bbec.from_ebs").nsPerKinst(), "ns/kinst")
	put("bbec.from_lbr_ns_per_kinst", get("bbec.from_lbr").nsPerKinst(), "ns/kinst")
	put("bbec.detect_bias_ns_per_kinst", get("bbec.detect_bias").nsPerKinst(), "ns/kinst")
	put("core.capture_us", get("core.capture").meanUs(), "us")
	enc := get("profstore.encode")
	put("profstore.encode_us", enc.meanUs(), "us")
	put("profstore.encode_bytes", float64(enc.count)/float64(enc.n), "bytes")
	put("pmu.pmis_per_minst", in.acc.pmisPerMinst, "1/Minst")
	put("pmu.lost_per_kpmi", in.acc.lostPerKpmi, "1/kPMI")
	put("core.lbr_choice_share", in.acc.lbrShare, "ratio")
	put("hbbp_err_pct", in.acc.errPct, "%")
	put("overhead_pct", in.acc.overheadPct, "%")

	// The fleet's path.
	srv := delta(in.reads, 1, "hbbp_fleetserver_ingest_seconds", `frame="batch"`)
	if srv.Count == 0 {
		problems = append(problems, "the server answered no batch frames")
		srv.Count = 1
	}
	serverMs := srv.Sum / float64(srv.Count) * 1e3
	put("fleetserver.read_to_reply_ms_mean", serverMs, "ms")
	put("fleetwire.client_overhead_ms", get("fleetwire.send_batch").meanMs()-serverMs, "ms")
	put("fleetserver.shed_total", float64(in.shed), "count")
	put("profstore.decode_us_per_profile", get("profstore.decode").meanUs(), "us")
	put("profstore.ingest_us_per_profile", get("profstore.ingest").meanUs(), "us")
	put("profstore.snapshot_ms_per_epoch", get("profstore.snapshot").meanMs(), "ms")
	put("tsstore.append_ms_per_epoch", get("tsstore.append").meanMs(), "ms")
	put("tsstore.downsample_ms_per_epoch", get("tsstore.downsample").meanMs(), "ms")
	interned := delta(in.reads, 0, "hbbp_profstore_merge_total", `path="interned"`).Value
	twoPointer := delta(in.reads, 0, "hbbp_profstore_merge_total", `path="two_pointer"`).Value
	put("profstore.merge_interned_share", ratio(interned, interned+twoPointer), "ratio")
	put("fleetserver.series_snapshot_ms_p50", p50("fleetserver.series_snapshot"), "ms")
	put("tsstore.window_ms_p50", p50("tsstore.window"), "ms")
	put("tsstore.trend_ms_p50", p50("tsstore.trend"), "ms")
	hits := delta(in.reads, 0, "hbbp_tsstore_tree_cache_total", `result="hit"`).Value
	misses := delta(in.reads, 0, "hbbp_tsstore_tree_cache_total", `result="miss"`).Value
	put("tsstore.tree_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("tsstore.windows", float64(in.windows), "count")

	// The run's own validity.
	self := selfTimes(in.spans)
	put("bench.paper_op_coverage_pct", coverage(in.spans, self, "paper.op"), "%")
	put("bench.query_coverage_pct", coverage(in.spans, self, "fleet.query"), "%")
	pooled := func(phs []*phase, f func(*phase) []float64) []float64 {
		var out []float64
		for _, ph := range phs {
			out = append(out, f(ph)...)
		}
		return out
	}
	lateMs := func(ph *phase) []float64 { return ph.lateMs }
	opMs := func(ph *phase) []float64 { return ph.opMs }
	late, err := percentile(pooled(slices.Concat(in.traced, []*phase{in.legs}), lateMs), 95)
	if err != nil {
		problems = append(problems, "generator lateness: "+err.Error())
	}
	put("bench.gen_late_ms_p95", late, "ms")
	plain, errP := percentile(pooled(in.plain, opMs), 50)
	traced, errT := percentile(pooled(in.traced, opMs), 50)
	if errP != nil || errT != nil {
		problems = append(problems, fmt.Sprintf("trace overhead: untraced %v, traced %v", errP, errT))
	}
	put("bench.trace_overhead_pct", 100*(traced/plain-1), "%")

	if len(problems) > 0 {
		sort.Strings(problems)
		return nil, fmt.Errorf("per-layer metrics: %s", strings.Join(problems, "; "))
	}
	return m, nil
}

// delta returns how much one series of registry reg (0 process-wide, 1
// the fleet server's) grew over the traced intervals. A registry that
// did not exist yet reads as all zeros.
func delta(reads []read, reg int, name, labels string) telemetry.Metric {
	find := func(s telemetry.Snapshot) telemetry.Metric {
		for _, m := range s {
			if m.Name == name && m.Labels == labels {
				return m
			}
		}
		return telemetry.Metric{}
	}
	var d telemetry.Metric
	for _, r := range reads {
		a, b := find(r.after[reg]), find(r.before[reg])
		d.Value += a.Value - b.Value
		d.Count += a.Count - b.Count
		d.Sum += a.Sum - b.Sum
	}
	return d
}

func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
