// Package profstore implements the fleet profile store: a mergeable,
// serializable form of a profiling run, built for continuous profiling
// at scale.
//
// The paper's pitch is profiling cheap enough to leave on everywhere
// (Sections I and V); what a fleet then needs is a way to persist each
// run's result, merge thousands of them from concurrent sessions, and
// ask what changed between two fleet mixes. A [Profile] here is that
// stored form: integer retirement mass keyed by stable identities —
// basic blocks by (unit, module, function, address) and instruction
// mass by (mnemonic, ring) — rather than by the in-memory block IDs of
// a live run, so profiles captured by different processes, machines or
// days merge meaningfully.
//
// Three properties are load-bearing:
//
//   - Canonical form. Every Profile this package hands out has its
//     workloads, blocks and ops sorted by key with no duplicates, so
//     two equal profiles are deeply equal and serialize to identical
//     bytes.
//   - Integer mass accounting. Counts are quantized to integers at
//     capture time, so merging is exact integer addition —
//     commutative and associative by construction. N profiles merged
//     in any order, grouping or sharding produce bit-identical
//     results.
//   - Self-containment. Like internal/perffile, this package depends
//     only on the standard library (enforced by the repository's
//     import-boundary test), so the store format can be lifted into
//     external fleet tooling unchanged.
//
// [Merge] combines profiles offline; [Aggregator] does the same online
// under concurrent ingestion; [Diff] compares two merged views and
// flags per-op share regressions.
package profstore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Ring is the privilege level a block executes in, mirroring the
// program model's rings without importing it (this package is
// stdlib-only by design).
const (
	// RingUser is user mode.
	RingUser uint8 = 0
	// RingKernel is kernel mode.
	RingKernel uint8 = 1
)

// ringString names a ring for rendering.
func ringString(r uint8) string {
	if r == RingKernel {
		return "kernel"
	}
	return "user"
}

// Block is one basic block's merged execution mass. The identity
// fields (Unit through Len) form the merge key; Count accumulates.
type Block struct {
	// Unit is the deployable unit the block was captured from — the
	// workload name at capture time, playing the role of a build ID:
	// two builds of the same module (e.g. a before/after pair) keep
	// distinct block namespaces.
	Unit string
	// Module is the linked image (binary, shared object, kernel
	// module) containing the block.
	Module string
	// Function is the symbol containing the block.
	Function string
	// Addr is the block's start address within the unit.
	Addr uint64
	// Ring is the privilege level the block executes in.
	Ring uint8
	// Len is the number of instructions the block retires per
	// execution (live text, trace points patched).
	Len uint32
	// Count is the merged execution count of the block.
	Count uint64
}

// Mass returns the block's retired-instruction mass: executions times
// instructions per execution.
func (b *Block) Mass() uint64 { return b.Count * uint64(b.Len) }

// String identifies the block for diagnostics.
func (b *Block) String() string {
	return fmt.Sprintf("%s/%s.%s@%#x[%d]", b.Unit, b.Module, b.Function, b.Addr, b.Len)
}

// OpMass is the merged retirement mass of one mnemonic in one ring.
// (Mnemonic, Ring) is the merge key; Mass accumulates.
type OpMass struct {
	// Mnemonic is the instruction name (e.g. "vaddps"). Stored as a
	// string so the format does not depend on any ISA table's numeric
	// encoding.
	Mnemonic string
	// Ring is the privilege level the retirements happened in.
	Ring uint8
	// Mass is the merged retired-instruction count.
	Mass uint64
}

// WorkloadWeight records how many profiled runs of one workload a
// profile aggregates — the merge's weight accounting.
type WorkloadWeight struct {
	// Name is the workload (capture unit) name.
	Name string
	// Runs is the number of single-run profiles merged in.
	Runs uint64
}

// Profile is a mergeable stored profile in canonical form: workloads
// sorted by name, blocks sorted by identity, ops sorted by
// (mnemonic, ring), each key appearing at most once. Profiles returned
// by this package are always canonical; hand-assembled ones can be
// normalized with [Canonical].
type Profile struct {
	Workloads []WorkloadWeight
	Blocks    []Block
	Ops       []OpMass
}

// TotalRuns returns the number of single-run profiles merged in.
func (p *Profile) TotalRuns() uint64 {
	var n uint64
	for _, w := range p.Workloads {
		n += w.Runs
	}
	return n
}

// TotalMass returns the profile's total retired-instruction mass
// across rings.
func (p *Profile) TotalMass() uint64 {
	var n uint64
	for _, o := range p.Ops {
		n += o.Mass
	}
	return n
}

// RingMass returns the retired-instruction mass of one ring.
func (p *Profile) RingMass(ring uint8) uint64 {
	var n uint64
	for _, o := range p.Ops {
		if o.Ring == ring {
			n += o.Mass
		}
	}
	return n
}

// TopBlocks returns the n hottest blocks by retired-instruction mass
// (count times length), ties broken by identity for determinism.
func (p *Profile) TopBlocks(n int) []Block {
	out := append([]Block(nil), p.Blocks...)
	slices.SortStableFunc(out, func(x, y Block) int {
		if c := cmp.Compare(y.Mass(), x.Mass()); c != 0 {
			return c
		}
		return blockKeyCmp(&x, &y)
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopOps returns the n most-retired (mnemonic, ring) entries, ties
// broken by key.
func (p *Profile) TopOps(n int) []OpMass {
	out := append([]OpMass(nil), p.Ops...)
	slices.SortStableFunc(out, func(x, y OpMass) int {
		if c := cmp.Compare(y.Mass, x.Mass); c != 0 {
			return c
		}
		return opKeyCmp(&x, &y)
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Clone returns a deep copy.
func (p *Profile) Clone() *Profile {
	return &Profile{
		Workloads: append([]WorkloadWeight(nil), p.Workloads...),
		Blocks:    append([]Block(nil), p.Blocks...),
		Ops:       append([]OpMass(nil), p.Ops...),
	}
}

// Weighted returns the profile scaled by an integer weight: every
// count, mass and run multiplied by times. Weighted(k) equals merging
// k copies — the explicit form of the merge's weight accounting (e.g.
// one profile standing in for k identical machines) — so Weighted(0)
// is the empty profile.
func (p *Profile) Weighted(times uint64) *Profile {
	if times == 0 {
		return &Profile{}
	}
	out := p.Clone()
	for i := range out.Workloads {
		out.Workloads[i].Runs *= times
	}
	for i := range out.Blocks {
		out.Blocks[i].Count *= times
	}
	for i := range out.Ops {
		out.Ops[i].Mass *= times
	}
	return out
}

// blockKeyCmp is the canonical block order: unit, module, function,
// address, ring, then length; rows that compare 0 are one key. It is
// three-way, so a merge step makes one comparison, not two, and each
// string field is compared once (strings.Compare returns at once when
// two strings share their bytes).
func blockKeyCmp(a, b *Block) int {
	if c := strings.Compare(a.Unit, b.Unit); c != 0 {
		return c
	}
	if c := strings.Compare(a.Module, b.Module); c != 0 {
		return c
	}
	if c := strings.Compare(a.Function, b.Function); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Ring, b.Ring); c != 0 {
		return c
	}
	return cmp.Compare(a.Len, b.Len)
}

// opKeyCmp is blockKeyCmp for op masses: mnemonic, then ring.
func opKeyCmp(a, b *OpMass) int {
	if c := strings.Compare(a.Mnemonic, b.Mnemonic); c != 0 {
		return c
	}
	return cmp.Compare(a.Ring, b.Ring)
}

// workloadKeyCmp is blockKeyCmp for workload weights: by name.
func workloadKeyCmp(a, b *WorkloadWeight) int { return strings.Compare(a.Name, b.Name) }

// The mass of each row type: the field a merge sums over equal keys and
// whose zero a canonical section never holds.
func workloadRuns(w *WorkloadWeight) *uint64 { return &w.Runs }
func blockCount(b *Block) *uint64            { return &b.Count }
func opMass(o *OpMass) *uint64               { return &o.Mass }

// Merge combines any number of profiles into one canonical profile.
// Mass accounting is pure integer addition over canonical keys, so the
// result is independent of argument order and grouping down to the
// bit: Merge(a, b, c), Merge(Merge(a, b), c) and Merge(a, Merge(c, b))
// are identical, Merge(p) of a canonical p returns an equal profile,
// and Merge() returns the empty profile (the merge identity). Nil
// arguments are ignored. The result never shares memory with an input
// or with another result, so callers may retain or mutate it freely.
//
// Merge is MergeCanonical after canonicalizing the inputs that need
// it: each input is checked, and one that is not canonical is replaced
// by a canonicalized copy before it enters the same tournament.
func Merge(profiles ...*Profile) *Profile { return merge(profiles, false) }

// MergeCanonical is Merge for inputs the caller knows to be canonical —
// every section strictly ascending by key with no zero-mass row, which
// every Profile this package returns is and which a series keeps for
// each window it owns — so no input is re-checked. It returns the same
// profile Merge would, under the same guarantees, with one precondition
// moved to the caller: a non-canonical input (a hand-assembled or
// since-mutated profile) is not detected, and the result is then
// unspecified. Use Merge for profiles from elsewhere.
//
// The canonical inputs meet in a balanced pairwise tournament of linear
// two-way merges, so k inputs of n rows cost O(n log k) key comparisons
// and equal keys are summed as soon as two inputs meet. The tournament
// runs depth-first, as a binary counter: each input is pushed as a
// level-0 partial, two partials of equal level merge into one of the
// next level, and the partials left when the inputs run out (strictly
// decreasing in level) fold from the smallest up. Every two-way merge
// writes into a scratch profile from a package-level pool, and each
// intermediate goes back to the pool once it has been merged into its
// parent, so steady-state merges allocate only their result: one
// exact-size copy out of the last scratch profile.
func MergeCanonical(profiles ...*Profile) *Profile { return merge(profiles, true) }

// merge is the one tournament behind Merge and MergeCanonical; trusted
// skips the per-input canonical check.
func merge(profiles []*Profile, trusted bool) *Profile {
	// The stack holds at most one partial per level plus the one being
	// pushed; 64 levels cover any fan-in an int can count.
	var stack [64]partial
	n, inputs := 0, 0
	for _, p := range profiles {
		if p == nil {
			continue
		}
		inputs++
		top := partial{p: p}
		if !trusted && !isCanonical(p) {
			top = partial{p: canonicalize(p), owned: true}
		}
		for n > 0 && stack[n-1].level == top.level {
			n--
			top = mergePartials(stack[n], top)
		}
		stack[n] = top
		n++
	}
	switch {
	case inputs == 0:
		return &Profile{}
	case inputs == 1 && stack[0].owned:
		// A canonicalized copy is already the caller's own.
		return stack[0].p
	case inputs == 1:
		return stack[0].p.Clone()
	}
	top := stack[n-1]
	for i := n - 2; i >= 0; i-- {
		top = mergePartials(stack[i], top)
	}
	out := top.p.Clone()
	scratch.Put(top.p)
	return out
}

// partial is one node of Merge's tournament: a canonical profile, the
// tournament level it stands for (log2 of the inputs it covers when
// they pair evenly), and whether Merge owns it — a scratch profile or
// a canonicalized copy, either of which may be recycled once merged.
type partial struct {
	p     *Profile
	level int
	owned bool
}

// scratch recycles Merge's intermediate profiles across calls. Pooled
// profiles are never handed out: every result is copied out of them.
var scratch = sync.Pool{New: func() any { return new(Profile) }}

// mergePartials merges a and b into a fresh scratch profile one level
// above a, and returns the inputs Merge owns to the pool.
func mergePartials(a, b partial) partial {
	dst := scratch.Get().(*Profile)
	merge2Into(dst, a.p, b.p)
	if a.owned {
		scratch.Put(a.p)
	}
	if b.owned {
		scratch.Put(b.p)
	}
	return partial{p: dst, level: a.level + 1, owned: true}
}

// merge2Into merges two canonical profiles into dst with linear
// two-pointer walks over string keys, one three-way key compare per
// step, overwriting dst's sections in place. A section's backing array
// is replaced only when its capacity is below len(a)+len(b), the most
// rows the merge can produce, so a recycled dst allocates nothing once
// it has grown; a section both inputs leave empty is truncated and
// never allocated, so a fresh dst keeps it nil. dst must alias neither
// input.
func merge2Into(dst, a, b *Profile) {
	ws := dst.Workloads[:0]
	if n := len(a.Workloads) + len(b.Workloads); cap(ws) < n {
		ws = make([]WorkloadWeight, 0, n)
	}
	i, j := 0, 0
	for i < len(a.Workloads) && j < len(b.Workloads) {
		switch c := workloadKeyCmp(&a.Workloads[i], &b.Workloads[j]); {
		case c < 0:
			ws = append(ws, a.Workloads[i])
			i++
		case c > 0:
			ws = append(ws, b.Workloads[j])
			j++
		default:
			w := a.Workloads[i]
			w.Runs += b.Workloads[j].Runs
			ws = append(ws, w)
			i++
			j++
		}
	}
	ws = append(ws, a.Workloads[i:]...)
	dst.Workloads = append(ws, b.Workloads[j:]...)

	bs := dst.Blocks[:0]
	if n := len(a.Blocks) + len(b.Blocks); cap(bs) < n {
		bs = make([]Block, 0, n)
	}
	i, j = 0, 0
	for i < len(a.Blocks) && j < len(b.Blocks) {
		switch c := blockKeyCmp(&a.Blocks[i], &b.Blocks[j]); {
		case c < 0:
			bs = append(bs, a.Blocks[i])
			i++
		case c > 0:
			bs = append(bs, b.Blocks[j])
			j++
		default:
			blk := a.Blocks[i]
			blk.Count += b.Blocks[j].Count
			bs = append(bs, blk)
			i++
			j++
		}
	}
	bs = append(bs, a.Blocks[i:]...)
	dst.Blocks = append(bs, b.Blocks[j:]...)

	ops := dst.Ops[:0]
	if n := len(a.Ops) + len(b.Ops); cap(ops) < n {
		ops = make([]OpMass, 0, n)
	}
	i, j = 0, 0
	for i < len(a.Ops) && j < len(b.Ops) {
		switch c := opKeyCmp(&a.Ops[i], &b.Ops[j]); {
		case c < 0:
			ops = append(ops, a.Ops[i])
			i++
		case c > 0:
			ops = append(ops, b.Ops[j])
			j++
		default:
			o := a.Ops[i]
			o.Mass += b.Ops[j].Mass
			ops = append(ops, o)
			i++
			j++
		}
	}
	ops = append(ops, a.Ops[i:]...)
	dst.Ops = append(ops, b.Ops[j:]...)
}

// isCanonical reports whether p is already in canonical form: every
// section strictly ascending in key order (which implies unique keys)
// with no zero-mass entries.
func isCanonical(p *Profile) bool {
	return ascending(p.Workloads, workloadKeyCmp, workloadRuns) &&
		ascending(p.Blocks, blockKeyCmp, blockCount) &&
		ascending(p.Ops, opKeyCmp, opMass)
}

// ascending is isCanonical for one section, of either representation:
// rows strictly ascending under compare, none with zero mass.
func ascending[T any](rows []T, compare func(a, b *T) int, mass func(*T) *uint64) bool {
	for i := range rows {
		if *mass(&rows[i]) == 0 {
			return false
		}
		if i > 0 && compare(&rows[i-1], &rows[i]) >= 0 {
			return false
		}
	}
	return true
}

// canonicalize returns p in canonical form as a fresh profile: every
// section sorted by key, duplicate keys summed, zero-mass rows
// dropped. It is the package's one normalization: Merge, Canonical
// (and through it core.Capture), Intern and the decoder's fallback for
// foreign streams all use it.
func canonicalize(p *Profile) *Profile {
	return &Profile{
		Workloads: canonicalRows(p.Workloads, workloadKeyCmp, workloadRuns),
		Blocks:    canonicalRows(p.Blocks, blockKeyCmp, blockCount),
		Ops:       canonicalRows(p.Ops, opKeyCmp, opMass),
	}
}

// canonicalRows is canonicalize for one section: a sorted copy of rows
// with duplicate keys (rows that compare 0) summed and zero-mass
// results dropped.
func canonicalRows[T any](rows []T, compare func(a, b *T) int, mass func(*T) *uint64) []T {
	out := append([]T(nil), rows...)
	// Not slices.SortFunc: the row copies it compares escape to the heap.
	sort.Slice(out, func(i, j int) bool { return compare(&out[i], &out[j]) < 0 })
	n := 0
	for i := range out {
		if n > 0 && compare(&out[n-1], &out[i]) == 0 {
			*mass(&out[n-1]) += *mass(&out[i])
			continue
		}
		out[n] = out[i]
		n++
	}
	kept := out[:0]
	for i := range out[:n] {
		if *mass(&out[i]) != 0 {
			kept = append(kept, out[i])
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}

// Canonical normalizes a hand-assembled profile: duplicate keys are
// summed, zero-mass entries dropped, everything sorted. Profiles
// produced by this package are already canonical.
func Canonical(p *Profile) *Profile { return Merge(p) }
