// Package bbec turns raw PMU samples into basic block execution count
// (BBEC) estimates — the EBS and LBR estimators of Section III — and
// detects the LBR entry[0] anomaly.
//
// Both estimators return per-block expected execution counts in the same
// units the ground truth uses, so the downstream HBBP chooser and the
// error metrics can compare them directly. The LBR estimator and the
// bias statistics also come in streaming form (Accumulator): a
// collection feeds it stacks while the run executes, and only the
// propagation of the bias flag, which needs the final biased set, is
// left for the end.
package bbec

import (
	"hbbp/internal/program"
)

// Branch mirrors one LBR entry (source, target). It is structurally
// identical to pmu.BranchRecord and perffile.Branch; the estimator keeps
// its own type so it depends on neither collection path.
type Branch struct {
	From, To uint64
}

// FromEBS computes BBECs from EBS-style IP samples (the paper's enhanced
// EBS): every sampled IP is credited to all instructions of the
// enclosing block — if one instruction of the block retired, the whole
// block did — and the per-block total is divided by the block's
// instruction length to recover executions. Each sample represents
// `period` retirements.
//
// Samples landing outside any known block (skid past a block boundary
// into padding, or kernel addresses with no symbols) are dropped and
// counted in the second return value.
func FromEBS(p *program.Program, ips []uint64, period uint64) (counts []float64, dropped int) {
	counts = make([]float64, p.NumBlocks())
	perBlock := make([]uint64, p.NumBlocks())
	for _, ip := range ips {
		blk := p.BlockAt(ip)
		if blk == nil {
			dropped++
			continue
		}
		perBlock[blk.ID]++
	}
	for id, n := range perBlock {
		if n == 0 {
			continue
		}
		blk := p.BlockByID(id)
		counts[id] = float64(n) * float64(period) / float64(blk.Len())
	}
	return counts, dropped
}

// LBROptions configures the LBR stream walker.
type LBROptions struct {
	// KernelLivePatched indicates the static kernel text has been
	// re-patched from the live image (Section III.C's remedy), so
	// trace-point blocks are known to fall through. When false, the
	// walker sees a static unconditional JMP mid-stream, concludes the
	// stream is corrupt and stops crediting blocks past it —
	// reproducing the undercount the paper observed on kernel code.
	KernelLivePatched bool
	// MaxStreamBytes is a sanity bound on the address span of one
	// stream. Genuine streams are short (code between two taken
	// branches); corrupt records — merged entries, missed branches —
	// can span arbitrary code and would smear counts across whole
	// modules if credited. Streams wider than the bound are dropped.
	// Zero means DefaultMaxStreamBytes.
	MaxStreamBytes uint64
	// ArchDepth is the architectural LBR depth used for weight
	// normalization. Stacks delivered shorter than the architectural
	// depth (context switches, the entry[0] anomaly) still normalize
	// by ArchDepth-1: the missing streams are lost, not re-weighted
	// onto the survivors. Zero means 16.
	ArchDepth int
}

// DefaultMaxStreamBytes is the default stream-span sanity bound.
const DefaultMaxStreamBytes = 1024

// FromLBR computes BBECs from LBR stack samples. Each stack of N entries
// (entry[0] oldest) yields N-1 streams <Target[i-1], Source[i]>; every
// block on the straight-line path covered by a stream executed. To
// normalize the N-1 streams to a single sample each stream gets weight
// 1/(N-1); each sample represents `period` retired taken branches, so a
// block's estimated execution count is its accumulated weight times the
// period.
//
// It returns the per-block estimates and the number of streams dropped
// because an endpoint was unmapped.
func FromLBR(p *program.Program, stacks [][]Branch, period uint64, opts LBROptions) (counts []float64, droppedStreams int) {
	a := newLBRAcc(p, opts)
	for _, stack := range stacks {
		a.add(p, stack)
	}
	return a.counts(p, period)
}

// lbrAcc is FromLBR's state between stacks.
type lbrAcc struct {
	opts    LBROptions // with the zero-means-default fields resolved
	weights []float64  // accumulated stream weight per block, in address order
	dropped int
}

func newLBRAcc(p *program.Program, opts LBROptions) lbrAcc {
	return lbrAcc{opts: opts.resolved(), weights: make([]float64, p.NumBlocks())}
}

// resolved fills in the fields whose zero value means a default.
func (o LBROptions) resolved() LBROptions {
	if o.MaxStreamBytes == 0 {
		o.MaxStreamBytes = DefaultMaxStreamBytes
	}
	if o.ArchDepth == 0 {
		o.ArchDepth = 16
	}
	return o
}

// add credits one stack's streams. A block's weight receives its terms
// in stack order and, within a stack, in stream order, so the sums do
// not depend on how the stacks were batched.
func (a *lbrAcc) add(p *program.Program, stack []Branch) {
	w := a.weight(stack)
	for i := 1; i < len(stack); i++ {
		from, to := stack[i-1].To, stack[i].From
		lo, hi := p.BlockRange(from, to)
		a.credit(p, w, from, to, lo, hi)
	}
}

// weight is the weight of each of a stack's streams.
func (a *lbrAcc) weight(stack []Branch) float64 {
	return 1 / float64(max(len(stack)-1, a.opts.ArchDepth-1))
}

// credit adds w to the blocks of the stream <from, to>, which are
// Blocks()[lo:hi], or counts the stream dropped.
func (a *lbrAcc) credit(p *program.Program, w float64, from, to uint64, lo, hi int) {
	if to < from || to-from > a.opts.MaxStreamBytes || lo == hi {
		a.dropped++
		return
	}
	if a.opts.KernelLivePatched {
		for k := range a.weights[lo:hi] {
			a.weights[lo+k] += w
		}
		return
	}
	blocks := p.Blocks()[lo:hi]
	for k, blk := range blocks {
		a.weights[lo+k] += w
		if blk.TraceJump && k < len(blocks)-1 {
			// Static text shows an unconditional JMP here, yet
			// the stream continues past it: treat the rest as
			// unreliable.
			break
		}
	}
}

// counts scales the weights by the period into per-block estimates,
// indexed by block ID.
func (a *lbrAcc) counts(p *program.Program, period uint64) ([]float64, int) {
	counts := make([]float64, p.NumBlocks())
	for k, blk := range p.Blocks() {
		counts[blk.ID] = a.weights[k] * float64(period)
	}
	return counts, a.dropped
}

// BiasStat records how often one branch source appeared in sampled
// stacks and how often it was pinned at entry[0].
type BiasStat struct {
	Entry0  uint64 // stacks with this source at entry[0]
	Present uint64 // stacks containing this source anywhere
	Copies  uint64 // total entries carrying this source across all stacks
}

// Entry0Fraction returns Entry0/Present, or 0 when unseen.
func (s BiasStat) Entry0Fraction() float64 {
	if s.Present == 0 {
		return 0
	}
	return float64(s.Entry0) / float64(s.Present)
}

// ExpectedEntry0Fraction returns the entry[0] occupancy an unbiased
// branch with this occupancy profile would show: a branch holding k of
// the depth entries of a stack lands at entry[0] with probability k/depth.
// Tight loops legitimately occupy many entries per stack, so anomaly
// detection must compare against this baseline rather than 1/depth.
func (s BiasStat) ExpectedEntry0Fraction(depth int) float64 {
	if s.Present == 0 || depth <= 0 {
		return 0
	}
	f := float64(s.Copies) / float64(s.Present) / float64(depth)
	if f > 1 {
		return 1
	}
	return f
}

// BiasReport is the outcome of LBR bias detection.
type BiasReport struct {
	// BlockBias flags, per block ID, blocks terminated by a branch that
	// shows the entry[0] anomaly — the "bias flag" of Section III.C.
	BlockBias []bool
	// Branches holds the per-branch-source statistics.
	Branches map[uint64]BiasStat
}

// BiasOptions configures anomaly detection.
type BiasOptions struct {
	// Threshold is the factor by which a branch's observed entry[0]
	// occupancy must exceed its expected occupancy (Copies/Present/
	// Depth) before it is declared biased, with an absolute floor of
	// FloorFraction.
	Threshold float64
	// FloorFraction is the minimum absolute entry[0] fraction for a
	// biased verdict, keeping sparse noise out.
	FloorFraction float64
	// Depth is the architectural LBR depth used for the expected
	// occupancy baseline. Zero means 16.
	Depth int
	// MinPresent is the minimum number of stacks a branch must appear
	// in before it can be judged, to avoid flagging noise.
	MinPresent uint64
	// DamageShare is the fraction of a block's LBR stream coverage
	// that must come from streams closing at a biased branch before
	// the block is flagged. Blocks mostly covered through such streams
	// lose a large part of their counts to the anomaly; blocks only
	// occasionally covered are barely affected.
	DamageShare float64
}

// DefaultBiasOptions returns the detection thresholds used by the tool.
func DefaultBiasOptions() BiasOptions {
	return BiasOptions{
		Threshold:     2.5,
		FloorFraction: 0.15,
		Depth:         16,
		MinPresent:    8,
		DamageShare:   0.60,
	}
}

// DetectBias scans LBR stacks for branches that occur disproportionately
// at entry[0] and flags the blocks whose LBR counts the anomaly
// distorts: a biased branch's closing stream (the blocks between the
// previous target and the branch) goes uncounted whenever the branch is
// pinned at entry[0], and the streams adjacent to it absorb the
// mis-normalised weight. The flag therefore propagates to every block
// observed in streams ending at or starting just after a biased branch.
func DetectBias(p *program.Program, stacks [][]Branch, opts BiasOptions) BiasReport {
	a := newBiasAcc(p, opts)
	for _, stack := range stacks {
		a.add(p, stack)
	}
	return a.report(p, stacks)
}

// biasAcc is DetectBias's state between stacks: the per-source counts
// and each block's stream coverage. Only the share of that coverage
// threatened by a biased branch waits for the last stack, because the
// biased set is known only then.
type biasAcc struct {
	opts  BiasOptions      // with the zero-means-default fields resolved
	index map[uint64]int32 // branch source -> its position in stats
	stats []BiasStat       // per source, in order of first sighting
	total []float64        // streams covering each block, in address order
}

func newBiasAcc(p *program.Program, opts BiasOptions) biasAcc {
	return biasAcc{opts: opts.resolved(), index: make(map[uint64]int32), total: make([]float64, p.NumBlocks())}
}

// resolved fills in the fields whose zero value means a default.
func (o BiasOptions) resolved() BiasOptions {
	if o.Threshold == 0 {
		o = DefaultBiasOptions()
	}
	if o.Depth == 0 {
		o.Depth = 16
	}
	if o.DamageShare == 0 {
		o.DamageShare = DefaultBiasOptions().DamageShare
	}
	return o
}

// add counts one stack's sources and its streams' coverage.
func (a *biasAcc) add(p *program.Program, stack []Branch) {
	a.count(stack)
	for i := 1; i < len(stack); i++ {
		a.cover(p.BlockRange(stack[i-1].To, stack[i].From))
	}
}

// count counts one stack's branch sources.
func (a *biasAcc) count(stack []Branch) {
	for i, rec := range stack {
		k, ok := a.index[rec.From]
		if !ok {
			k = int32(len(a.stats))
			a.index[rec.From] = k
			a.stats = append(a.stats, BiasStat{})
		}
		s := &a.stats[k]
		s.Copies++
		// First occurrence within this stack? Stacks are at most the
		// architectural depth, so a linear scan of the preceding
		// entries beats a per-stack seen map.
		first := true
		for j := 0; j < i; j++ {
			if stack[j].From == rec.From {
				first = false
				break
			}
		}
		if first {
			s.Present++
			if i == 0 {
				s.Entry0++
			}
		}
	}
}

// cover counts one stream over the blocks Blocks()[lo:hi].
func (a *biasAcc) cover(lo, hi int) {
	for k := range a.total[lo:hi] {
		a.total[lo+k]++
	}
}

// report judges every source and propagates the flag. stacks must be
// the stacks added, in order; only those holding a biased branch are
// walked again. It leaves the accumulator unchanged.
func (a *biasAcc) report(p *program.Program, stacks [][]Branch) BiasReport {
	branches := make(map[uint64]BiasStat, len(a.index))
	for addr, k := range a.index {
		branches[addr] = a.stats[k]
	}
	report := BiasReport{
		BlockBias: make([]bool, p.NumBlocks()),
		Branches:  branches,
	}
	var biased []uint64
	for addr, s := range branches {
		if s.Present < a.opts.MinPresent {
			continue
		}
		got := s.Entry0Fraction()
		want := s.ExpectedEntry0Fraction(a.opts.Depth)
		if got <= a.opts.FloorFraction || got <= a.opts.Threshold*want {
			continue
		}
		biased = append(biased, addr)
		if blk := p.BlockAt(addr); blk != nil {
			report.BlockBias[blk.ID] = true
		}
	}
	if len(biased) == 0 {
		return report
	}
	// Propagation pass: when a biased branch is in the LBR window, the
	// anomalous read can drop every entry older than it, so all
	// coverage delivered alongside a biased branch is threatened. A
	// block whose coverage comes mostly from such stacks is
	// systematically undercounted and gets the flag; blocks with
	// plenty of coverage away from biased branches do not.
	// The biased set is a handful of sources (two to six on the
	// short-block and suite programs measured), so a scan of it beats
	// a map lookup for every stack entry.
	threatened := make([]float64, p.NumBlocks())
	for _, stack := range stacks {
		hasBiased := false
	entries:
		for _, rec := range stack {
			for _, addr := range biased {
				if rec.From == addr {
					hasBiased = true
					break entries
				}
			}
		}
		if !hasBiased {
			continue
		}
		for i := 1; i < len(stack); i++ {
			lo, hi := p.BlockRange(stack[i-1].To, stack[i].From)
			for k := range threatened[lo:hi] {
				threatened[lo+k]++
			}
		}
	}
	for k, blk := range p.Blocks() {
		if a.total[k] > 0 && threatened[k]/a.total[k] > a.opts.DamageShare {
			report.BlockBias[blk.ID] = true
		}
	}
	return report
}

// Accumulator is the streaming form of FromLBR and DetectBias: it takes
// LBR stacks in arrival order, as a collection delivers them, and keeps
// both estimators' state between stacks, so a run's stacks can be
// credited while the run executes. Its results are bit-identical to
// FromLBR and DetectBias over the same stacks.
//
// Add must not run concurrently with anything else on the accumulator;
// once adding is done, LBR, Bias and Matches only read it and may be
// called from any number of goroutines.
type Accumulator struct {
	p      *program.Program
	lbr    lbrAcc
	bias   biasAcc
	stacks int // stacks added
}

// NewAccumulator returns an empty accumulator for stacks sampled from p.
func NewAccumulator(p *program.Program, lbr LBROptions, bias BiasOptions) *Accumulator {
	return &Accumulator{p: p, lbr: newLBRAcc(p, lbr), bias: newBiasAcc(p, bias)}
}

// Add credits stacks, which follow every stack added before.
func (a *Accumulator) Add(stacks [][]Branch) {
	for _, stack := range stacks {
		a.bias.count(stack)
		w := a.lbr.weight(stack)
		for i := 1; i < len(stack); i++ {
			from, to := stack[i-1].To, stack[i].From
			lo, hi := a.p.BlockRange(from, to)
			a.bias.cover(lo, hi)
			a.lbr.credit(a.p, w, from, to, lo, hi)
		}
	}
	a.stacks += len(stacks)
}

// Matches reports whether the accumulator holds exactly what a fresh
// one would after adding n stacks sampled from p under these options.
func (a *Accumulator) Matches(p *program.Program, lbr LBROptions, bias BiasOptions, n int) bool {
	return a.p == p && a.stacks == n && a.lbr.opts == lbr.resolved() && a.bias.opts == bias.resolved()
}

// LBR returns what FromLBR returns for the stacks added.
func (a *Accumulator) LBR(period uint64) (counts []float64, droppedStreams int) {
	return a.lbr.counts(a.p, period)
}

// Bias returns what DetectBias returns for the stacks added; stacks
// must be those stacks, in order.
func (a *Accumulator) Bias(stacks [][]Branch) BiasReport {
	return a.bias.report(a.p, stacks)
}
