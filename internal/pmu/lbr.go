package pmu

import "hbbp/internal/cpu"

// BranchRecord is one LBR entry: the address of a retired taken branch
// (From) and its target (To).
type BranchRecord = cpu.Branch

// lbrRing reads the machine's branch history the way the LBR facility
// does. The history is deeper than the architectural LBR so the bias
// anomaly can deliver stale windows: when a bias-prone branch is present
// at sufficient depth, a snapshot may be aligned so that branch sits at
// entry[0] — the position whose source cannot be paired with any
// preceding target, which is exactly the distortion Section III.C
// describes (branches appearing at entry[0] up to 50% of the time).
type lbrRing struct {
	*cpu.BranchRing
	// unretired is how many of the newest records belong to branches
	// after the retirement being sampled; reads skip them.
	unretired int
}

// at returns the record age positions back from the newest visible one
// (age 0 = newest). The caller must ensure age < available().
func (r *lbrRing) at(age int) BranchRecord { return r.At(age + r.unretired) }

// available returns how many records can be read back.
func (r *lbrRing) available() int { return r.Len() - r.unretired }

// snapshotInto returns the newest len(dst) records ordered oldest-first
// (entry[0] = oldest), the stack layout the paper's stream extraction
// assumes, written into dst — the allocation-free delivery path. offset
// shifts the window into the past: offset 0 is the architectural
// snapshot; offset k returns the window ending k branches ago. Returns
// nil when not enough history is available.
func (r *lbrRing) snapshotInto(dst []BranchRecord, offset int) []BranchRecord {
	if r.available() < len(dst)+offset {
		return nil
	}
	for i := range dst {
		dst[i] = r.at(offset + len(dst) - 1 - i)
	}
	return dst
}

// findProne returns the age (0 = newest) of the most recent bias-prone
// branch within the architectural window of the given depth, or false
// when none is present.
func (r *lbrRing) findProne(depth int, prone func(uint64) bool) (int, bool) {
	for age := 0; age < min(r.available(), depth); age++ {
		if prone(r.at(age).From) {
			return age, true
		}
	}
	return 0, false
}
