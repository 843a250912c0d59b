package pmu

import "hbbp/internal/cpu"

// The LBR tests drive a standalone ring through these helpers, the
// writes the machine makes to its own ring.

func newLBRRing(historyDepth int) *lbrRing {
	return &lbrRing{BranchRing: cpu.NewBranchRing(historyDepth)}
}

func (r *lbrRing) push(rec BranchRecord) { r.Push(rec) }

func (r *lbrRing) pushRepeated(pattern []cpu.Branch, reps uint64) {
	r.PushRepeated(pattern, reps)
}

func (r *lbrRing) snapshot(depth, offset int) []BranchRecord {
	return r.snapshotInto(make([]BranchRecord, depth), offset)
}
