package tsstore

import (
	"sync"
	"unsafe"

	"hbbp/internal/profstore"
)

// Index fills the column of every window overlapping [since, until]
// that has none, so that Window calls over those windows — on this
// series, or on clones made after it — add columns instead of merging
// rows. Each column is one linear profstore.Spine.Align of its window;
// a window holding a key the spine lacks first grows the spine, which
// remaps every column the series holds onto the new one (fresh slices,
// so clones keep theirs) and drops keys no column uses any more. A
// range over fewer than two windows indexes nothing: a query over one
// window is a copy, which a column cannot beat. A window whose column
// would take more bytes than its rows stays unindexed until it changes
// — the bound on what columns cost when keys churn, say a new unit per
// build — and a window whose column a grown spine pushes past that
// bound loses it.
//
// Index changes only what the series holds beside its profiles: every
// query answers the same before and after it. Appends and folds keep
// it current on their own (an append clears the column of the window
// it touches; a fold sums its windows' columns), so a caller that
// queries the same windows again builds nothing. Columns are never
// saved; a series Open returns is unindexed.
func (s *Series) Index(since, until uint64) {
	if since > until {
		return
	}
	i, j := s.overlap(since, until)
	if j-i < 2 {
		return
	}
	var grow []int
	for k := i; k < j; k++ {
		w := &s.windows[k]
		if w.col != nil || w.wide {
			continue
		}
		if !fitsColumn(w.prof, s.spine.Len()) {
			w.wide = true
			continue
		}
		col := make([]uint64, s.spine.Len())
		if !s.spine.Align(w.prof, col) {
			grow = append(grow, k)
			continue
		}
		w.col = col
		columnsBuilt.Inc()
	}
	if len(grow) > 0 {
		s.growSpine(grow)
	}
}

// growSpine grows the spine by the keys of the windows at pending,
// remaps every existing column onto it, and fills the pending windows'
// columns. A column, held or new, that would break the memory rule on
// the grown spine is left off its window, and the keys only such
// windows use leave the spine at its next growth.
func (s *Series) growSpine(pending []int) {
	var held []int
	var cols [][]uint64
	for k := range s.windows {
		if s.windows[k].col != nil {
			held = append(held, k)
			cols = append(cols, s.windows[k].col)
		}
	}
	add := make([]*profstore.Profile, len(pending))
	for n, k := range pending {
		add[n] = s.windows[k].prof
	}
	spine, moved := s.spine.Grow(cols, add...)
	s.spine = spine
	for n, k := range held {
		w := &s.windows[k]
		w.col = moved[n]
		if !fitsColumn(w.prof, spine.Len()) {
			w.col, w.wide = nil, true
		}
	}
	for _, k := range pending {
		w := &s.windows[k]
		if !fitsColumn(w.prof, spine.Len()) {
			w.wide = true
			continue
		}
		w.col = make([]uint64, spine.Len())
		spine.Align(w.prof, w.col) // cannot fail: the spine now holds every key of w.prof
		columnsBuilt.Inc()
	}
}

// fitsColumn is the memory rule: a column of n masses may take no more
// bytes than the rows of the window it indexes.
func fitsColumn(p *profstore.Profile, n int) bool {
	rows := len(p.Workloads)*int(unsafe.Sizeof(profstore.WorkloadWeight{})) +
		len(p.Blocks)*int(unsafe.Sizeof(profstore.Block{})) +
		len(p.Ops)*int(unsafe.Sizeof(profstore.OpMass{}))
	return n*int(unsafe.Sizeof(uint64(0))) <= rows
}

// sumScratch recycles Window's column sums across queries and clones.
var sumScratch = sync.Pool{New: func() any { return new([]uint64) }}

// sumColumns returns the canonical profile of the indexed windows in
// [i, j): their columns summed in pooled scratch, materialized once.
func (s *Series) sumColumns(i, j int) *profstore.Profile {
	buf := sumScratch.Get().(*[]uint64)
	defer sumScratch.Put(buf)
	n := s.spine.Len()
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	sum := (*buf)[:n]
	clear(sum)
	for k := i; k < j; k++ {
		addColumn(sum, s.windows[k].col)
	}
	return s.spine.Materialize(sum)
}

// foldColumn returns the column of the fold of the windows in [i, j):
// the sum of their columns, or nil unless every one is indexed.
func (s *Series) foldColumn(i, j int) []uint64 {
	for k := i; k < j; k++ {
		if s.windows[k].col == nil {
			return nil
		}
	}
	sum := make([]uint64, s.spine.Len())
	for k := i; k < j; k++ {
		addColumn(sum, s.windows[k].col)
	}
	return sum
}

// addColumn adds col into sum element by element; a nil col adds
// nothing.
func addColumn(sum, col []uint64) {
	if col == nil {
		return
	}
	col = col[:len(sum)]
	for x, v := range col {
		sum[x] += v
	}
}
