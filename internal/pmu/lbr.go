package pmu

import "hbbp/internal/cpu"

// BranchRecord is one LBR entry: the address of a retired taken branch
// and its target.
type BranchRecord struct {
	From uint64 // branch instruction address (source)
	To   uint64 // branch target address
}

// lbrRing keeps more history than the architectural LBR depth so the
// bias anomaly can deliver stale windows: when a bias-prone branch is
// present at sufficient depth, a snapshot may be aligned so that branch
// sits at entry[0] — the position whose source cannot be paired with any
// preceding target, which is exactly the distortion Section III.C
// describes (branches appearing at entry[0] up to 50% of the time).
type lbrRing struct {
	buf   []BranchRecord
	head  int // next write position
	count int // total records ever written
}

func newLBRRing(historyDepth int) *lbrRing {
	return &lbrRing{buf: make([]BranchRecord, historyDepth)}
}

// push records a retired taken branch. The wrap is a compare instead
// of a modulo — push sits on the per-taken-branch hot path.
func (r *lbrRing) push(rec BranchRecord) {
	r.buf[r.head] = rec
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.count++
}

// pushRepeated records reps repetitions of the taken-branch sequence
// pattern, exactly as that many push calls would leave the ring: only
// the newest len(buf) records are written, and head and count advance
// as if every record had been pushed.
func (r *lbrRing) pushRepeated(pattern []cpu.Branch, reps uint64) {
	k := uint64(len(pattern))
	total := k * reps
	if total == 0 {
		return
	}
	size := uint64(len(r.buf))
	skip := uint64(0)
	if total > size {
		skip = total - size
	}
	// Record i of the sequence is pattern[i%k] and lands at
	// (head+i) % size; start at the first record that survives.
	pos := int((uint64(r.head) + skip) % size)
	j := int(skip % k)
	for i := skip; i < total; i++ {
		r.buf[pos] = BranchRecord(pattern[j])
		if pos++; pos == len(r.buf) {
			pos = 0
		}
		if j++; j == len(pattern) {
			j = 0
		}
	}
	r.head = pos
	r.count += int(total)
}

// at returns the record age positions back from the newest (age 0 =
// newest). The caller must ensure age < min(count, len(buf)).
func (r *lbrRing) at(age int) BranchRecord {
	idx := r.head - 1 - age
	idx %= len(r.buf)
	if idx < 0 {
		idx += len(r.buf)
	}
	return r.buf[idx]
}

// available returns how many records can be read back.
func (r *lbrRing) available() int {
	if r.count < len(r.buf) {
		return r.count
	}
	return len(r.buf)
}

// snapshot returns the newest depth records ordered oldest-first
// (entry[0] = oldest), i.e. the stack layout the paper's stream
// extraction assumes. offset shifts the window into the past: offset 0
// is the architectural snapshot; offset k returns the window ending k
// branches ago. Returns nil when not enough history is available.
func (r *lbrRing) snapshot(depth, offset int) []BranchRecord {
	return r.snapshotInto(make([]BranchRecord, depth), offset)
}

// snapshotInto is snapshot writing into a caller-owned buffer whose
// length is the window depth — the allocation-free delivery path. The
// returned slice is dst (or nil when not enough history is available);
// entry[len-1] is the newest record within the window.
func (r *lbrRing) snapshotInto(dst []BranchRecord, offset int) []BranchRecord {
	depth := len(dst)
	if r.available() < depth+offset {
		return nil
	}
	// Walk the ring backwards once instead of re-deriving the wrapped
	// index per entry: idx starts at the newest record of the window
	// and only ever needs one wrap adjustment because depth is bounded
	// by the ring size.
	idx := (r.head - 1 - offset) % len(r.buf)
	if idx < 0 {
		idx += len(r.buf)
	}
	for i := depth - 1; i >= 0; i-- {
		dst[i] = r.buf[idx]
		if idx--; idx < 0 {
			idx += len(r.buf)
		}
	}
	return dst
}

// findProne returns the age (0 = newest) of the most recent bias-prone
// branch within the architectural window of the given depth, or false
// when none is present.
func (r *lbrRing) findProne(depth int, prone func(uint64) bool) (int, bool) {
	avail := r.available()
	if avail > depth {
		avail = depth
	}
	for age := 0; age < avail; age++ {
		if prone(r.at(age).From) {
			return age, true
		}
	}
	return 0, false
}
