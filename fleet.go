package hbbp

import (
	"fmt"
	"io"

	"hbbp/internal/analyzer"
	"hbbp/internal/core"
	"hbbp/internal/isa"
	"hbbp/internal/pivot"
	"hbbp/internal/profstore"
)

// The fleet layer: a Session produces one Profile per run; this file
// is how thousands of them become one queryable fleet view. Capture a
// run into a mergeable StoredProfile, persist it with SaveProfile /
// LoadProfile, merge any number of them offline (MergeProfiles) or
// online under concurrent ingestion (Aggregator), and compare fleet
// mixes with DiffProfiles.

// StoredProfile is the mergeable, serializable form of a profiling
// run: integer retirement mass keyed by stable identities (blocks by
// unit/module/function/address, instruction mass by mnemonic and
// ring), so profiles captured by different sessions, machines or days
// merge meaningfully — and bit-identically in any merge order.
type StoredProfile = profstore.Profile

// StoredBlock is one basic block's merged execution mass in a
// StoredProfile.
type StoredBlock = profstore.Block

// OpMass is the merged retirement mass of one mnemonic in one ring.
type OpMass = profstore.OpMass

// WorkloadWeight records how many profiled runs of one workload a
// StoredProfile aggregates — the merge's weight accounting.
type WorkloadWeight = profstore.WorkloadWeight

// ProfileDiff reports what changed between two fleet mixes.
type ProfileDiff = profstore.DiffReport

// OpDelta is one mnemonic's movement in a ProfileDiff.
type OpDelta = profstore.OpDelta

// DefaultDiffThreshold is the regression threshold [DiffProfiles]
// applies when none is given: one percentage point of share movement.
const DefaultDiffThreshold = profstore.DefaultDiffThreshold

// CaptureProfile quantizes one run's hybrid per-block counts into a
// mergeable stored profile representing a single run of unit
// (conventionally the workload name; it scopes block identities like
// a build ID).
func CaptureProfile(prof *Profile, unit string) (*StoredProfile, error) {
	if prof == nil {
		return nil, fmt.Errorf("hbbp: CaptureProfile of a nil profile")
	}
	return core.Capture(prof, unit), nil
}

// SaveProfile writes a stored profile to w in the versioned binary
// profile-store format (magic "HBBPROF1"). Equal profiles serialize
// to identical bytes.
func SaveProfile(w io.Writer, sp *StoredProfile) error {
	return profstore.Save(w, sp)
}

// SaveProfileFile writes a stored profile to the file at path, in the
// format of [SaveProfile], durably and atomically: the bytes are staged
// in a temp file beside path and fsynced before a rename replaces path,
// so an interrupted or failed save never leaves a truncated profile
// there — one would poison every later load of it.
func SaveProfileFile(path string, sp *StoredProfile) error {
	data, err := profstore.AppendSave(nil, sp)
	if err != nil {
		return err
	}
	return profstore.WriteFileAtomic(path, data)
}

// LoadProfile reads one stored profile written by [SaveProfile].
// Malformed streams return errors matching [ErrProfileMagic],
// [ErrProfileTruncated] or [ErrProfileVersion] under errors.Is.
func LoadProfile(r io.Reader) (*StoredProfile, error) {
	return profstore.Load(r)
}

// LoadProfileBytes decodes one stored profile from an in-memory
// buffer — [LoadProfile] without the reader indirection. When the
// whole file is already in memory (os.ReadFile, a wire frame), this
// path decodes without an intermediate copy.
func LoadProfileBytes(data []byte) (*StoredProfile, error) {
	return profstore.LoadBytes(data)
}

// MergeProfiles combines any number of stored profiles into one.
// Mass accounting is integer addition over canonical keys, so the
// result is bit-identical in any argument order or grouping; merging
// a single profile returns an equal profile, and merging none returns
// the empty profile. Nil entries are ignored.
func MergeProfiles(profiles ...*StoredProfile) *StoredProfile {
	return profstore.Merge(profiles...)
}

// DiffProfiles compares two fleet mixes op by op, producing per-op
// mass and share deltas sorted by movement, with entries at or above
// threshold (a share fraction; 0 selects [DefaultDiffThreshold])
// flagged as regressions. Shares are computed against each profile's
// own total mass, so fleets of different sizes compare directly.
func DiffProfiles(before, after *StoredProfile, threshold float64) *ProfileDiff {
	return profstore.Diff(before, after, profstore.DiffOptions{Threshold: threshold})
}

// Aggregator merges profiles online: any number of goroutines —
// typically concurrent [Session.Profile] runs — ingest results while
// readers take consistent snapshots. Each ingest interns its profile
// outside the aggregator's one lock and then adds integers under it; a
// snapshot reflects every ingest that returned before the call and
// never a partial one, and is bit-identical to [MergeProfiles] over the same
// profiles at any ingestion parallelism. Construct with
// [NewAggregator]; the zero value is not usable.
type Aggregator struct {
	inner *profstore.Aggregator
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{inner: profstore.NewAggregator()}
}

// Add captures a live profile (as one run of unit) and folds it into
// the aggregator. Safe for concurrent use.
func (a *Aggregator) Add(prof *Profile, unit string) error {
	sp, err := CaptureProfile(prof, unit)
	if err != nil {
		return err
	}
	a.inner.Ingest(sp)
	return nil
}

// Merge folds an already-captured stored profile into the aggregator
// — e.g. one loaded from another machine's [SaveProfile] output. Safe
// for concurrent use; nil profiles are ignored.
func (a *Aggregator) Merge(sp *StoredProfile) {
	a.inner.Ingest(sp)
}

// Snapshot returns the merged view of everything ingested so far
// without stopping ingestion: the aggregate is copied out under a
// brief exclusive section and canonicalized outside it.
func (a *Aggregator) Snapshot() *StoredProfile {
	return a.inner.Snapshot()
}

// StoredMix converts a stored profile's per-op mass into a [Mix]
// under the scope filter, for scoring fleet mixes with
// [AvgWeightedError] or feeding mix-level analyses. Mnemonics this
// build's ISA table does not know (a stored profile may come from a
// newer build) are skipped.
func StoredMix(sp *StoredProfile, scope Scope) Mix {
	return analyzer.StoredMix(sp, scope)
}

// StoredPivot explodes a stored profile's op masses into a pivot
// table with the static instruction attributes attached — mnemonic,
// ring, ISA extension, packing, category and memory behaviour — so
// the mix views ([TopMnemonics], [ExtBreakdown], [PackingView],
// [RingBreakdown]) work on fleet mixes exactly as they do on live
// profiles. Unknown mnemonics keep their name with blank static
// attributes rather than disappearing from the totals. Stored op
// masses carry no code-location dimensions; for location views
// ([TopFunctions] and friends) use [StoredBlockPivot].
func StoredPivot(sp *StoredProfile) *PivotTable {
	tab := pivot.New()
	memTax := isa.MemoryAccess()
	for _, o := range sp.Ops {
		ring := RingUser
		if o.Ring == profstore.RingKernel {
			ring = RingKernel
		}
		dims := map[string]string{
			DimMnemonic: o.Mnemonic,
			DimRing:     ring.String(),
			DimExt:      "",
			DimPacking:  "",
			DimCategory: "",
			DimMemory:   "",
		}
		if op, err := isa.Parse(o.Mnemonic); err == nil {
			info := op.Info()
			dims[DimExt] = info.Ext.String()
			dims[DimPacking] = info.Packing.String()
			dims[DimCategory] = info.Cat.String()
			dims[DimMemory] = memTax.Classify(op)
		}
		tab.Add(dims, float64(o.Mass))
	}
	return tab
}

// DimUnit is the pivot dimension naming the capture unit (workload /
// build) a stored block came from, emitted by [StoredBlockPivot]
// alongside the standard location dimensions.
const DimUnit = "unit"

// StoredBlockPivot explodes a stored profile's block masses into a
// pivot table keyed by code location — [DimUnit], [DimModule],
// [DimFunction], [DimBlock], [DimRing] — with retired-instruction
// mass (count times length) as the value, so the location views
// ([TopFunctions], [RingBreakdown], custom queries) work at fleet
// scale. The mnemonic-attribute dimensions live on [StoredPivot]; the
// stored format keeps the two mass breakdowns separate.
func StoredBlockPivot(sp *StoredProfile) *PivotTable {
	tab := pivot.New()
	for i := range sp.Blocks {
		b := &sp.Blocks[i]
		ring := RingUser
		if b.Ring == profstore.RingKernel {
			ring = RingKernel
		}
		tab.Add(map[string]string{
			DimUnit:     b.Unit,
			DimModule:   b.Module,
			DimFunction: b.Function,
			DimBlock:    fmt.Sprintf("%s@%#x", b.Function, b.Addr),
			DimRing:     ring.String(),
		}, float64(b.Mass()))
	}
	return tab
}
