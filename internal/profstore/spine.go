package profstore

import "slices"

// Spine is an ordered key set: the canonical keys of some profiles,
// with no mass. A profile aligned onto a spine becomes a column, one
// uint64 per spine key (workloads, then blocks, then ops, each in
// canonical order), so profiles aligned onto one spine merge by adding
// their columns element by element, with no key compare. The columns
// are the column-store form of a run of profiles that share most of
// their keys (a series' windows); [Spine.Materialize] turns a column
// back into the canonical profile. A Spine is immutable once made, so
// any number of readers may share it. The zero value and nil are the
// empty spine.
type Spine struct {
	keys Profile // canonical key order; the masses mean nothing
}

// Len returns the number of keys, the length of every column aligned
// onto the spine.
func (s *Spine) Len() int {
	if s == nil {
		return 0
	}
	return len(s.keys.Workloads) + len(s.keys.Blocks) + len(s.keys.Ops)
}

// Align writes the masses of p into col at their keys' positions and
// zeroes every other position. p must be canonical and len(col) must
// be s.Len(). It reports false when p holds a key the spine lacks;
// col's content is then unspecified. One linear walk of both key
// lists, one three-way compare per step.
func (s *Spine) Align(p *Profile, col []uint64) bool {
	var keys Profile
	if s != nil {
		keys = s.keys
	}
	nw, nb := len(keys.Workloads), len(keys.Workloads)+len(keys.Blocks)
	return alignRows(keys.Workloads, p.Workloads, col[:nw], workloadKeyCmp, workloadRuns) &&
		alignRows(keys.Blocks, p.Blocks, col[nw:nb], blockKeyCmp, blockCount) &&
		alignRows(keys.Ops, p.Ops, col[nb:], opKeyCmp, opMass)
}

// alignRows is Align for one section.
func alignRows[T any](keys, rows []T, col []uint64, compare func(a, b *T) int, mass func(*T) *uint64) bool {
	i := 0
	for j := range rows {
		for i < len(keys) && compare(&keys[i], &rows[j]) < 0 {
			col[i] = 0
			i++
		}
		if i == len(keys) || compare(&keys[i], &rows[j]) != 0 {
			return false
		}
		col[i] = *mass(&rows[j])
		i++
	}
	clear(col[i:])
	return true
}

// Grow returns a spine holding every key of s that has a non-zero mass
// in at least one of cols, plus every key of the canonical profiles
// add, together with cols remapped onto it (each a fresh slice, in the
// same order). Keys no column uses are dropped, so a spine grown as
// its profiles change tracks the keys they hold rather than every key
// they ever held. Neither s nor cols is modified: readers still
// holding them stay valid. Every column must be s.Len() long.
//
// Each column goes through its profile: materialized on s, and aligned
// onto the union of its keys and every other column's and add's. The
// union is the merge of key-only copies, every mass 1, so no key drops
// out where the masses of the profiles holding it sum to 2^64. A series
// grows its spine only when a window brings a new key, so this costs
// about one merge of its windows, now and then.
func (s *Spine) Grow(cols [][]uint64, add ...*Profile) (*Spine, [][]uint64) {
	held := make([]*Profile, len(cols))
	keys := make([]*Profile, 0, len(cols)+len(add))
	for i, col := range cols {
		held[i] = s.Materialize(col)
		keys = append(keys, keysOf(held[i]))
	}
	for _, p := range add {
		keys = append(keys, keysOf(p))
	}
	grown := &Spine{keys: *MergeCanonical(keys...)}
	out := make([][]uint64, len(cols))
	for i, p := range held {
		out[i] = make([]uint64, grown.Len())
		grown.Align(p, out[i])
	}
	return grown, out
}

// keysOf returns a copy of the canonical profile p with every mass 1.
func keysOf(p *Profile) *Profile {
	return &Profile{
		Workloads: keyRows(p.Workloads, workloadRuns),
		Blocks:    keyRows(p.Blocks, blockCount),
		Ops:       keyRows(p.Ops, opMass),
	}
}

// keyRows is keysOf for one section.
func keyRows[T any](rows []T, mass func(*T) *uint64) []T {
	out := slices.Clone(rows)
	for i := range out {
		*mass(&out[i]) = 1
	}
	return out
}

// Materialize returns the canonical profile whose masses are col: one
// row for each non-zero position, in spine order, so a sum of aligned
// columns materializes to the profile Merge would return for the
// profiles they came from (a sum that wraps to zero reads as an absent
// key in both). Each section is allocated once at its exact size; a
// section with no row stays nil, as Merge leaves it.
func (s *Spine) Materialize(col []uint64) *Profile {
	out := &Profile{}
	if s == nil {
		return out
	}
	nw, nb := len(s.keys.Workloads), len(s.keys.Workloads)+len(s.keys.Blocks)
	out.Workloads = materializeRows(s.keys.Workloads, col[:nw], workloadRuns)
	out.Blocks = materializeRows(s.keys.Blocks, col[nw:nb], blockCount)
	out.Ops = materializeRows(s.keys.Ops, col[nb:], opMass)
	return out
}

// materializeRows is Materialize for one section.
func materializeRows[T any](keys []T, col []uint64, mass func(*T) *uint64) []T {
	n := 0
	for _, v := range col {
		if v != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for i, v := range col {
		if v != 0 {
			out = append(out, keys[i])
			*mass(&out[len(out)-1]) = v
		}
	}
	return out
}
