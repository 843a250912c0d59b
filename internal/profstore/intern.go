package profstore

import (
	"cmp"
	"sort"
)

// Interned is a canonical profile in index-keyed form: every unit,
// module, function and mnemonic string lives once in a sorted, unique
// symbol table, and rows carry uint32 table indexes instead of
// strings. It is the stored format's shape in memory — [LoadInterned]
// decodes into it and the encoder dumps it — so a profile can travel
// from wire bytes into an [Aggregator] without materializing a
// string-keyed row.
//
// Because the table is sorted before indexes are assigned, index order
// is string order, and the rows of a canonical profile are in
// ascending index order too.
//
// An Interned is immutable once built; it is safe to share across
// goroutines. Materialize with [Interned.Profile].
type Interned struct {
	syms      []string // sorted, unique
	workloads []iWorkload
	blocks    []iBlock
	ops       []iOp
}

// iWorkload, iBlock and iOp mirror the Profile row types with symbol
// IDs in place of strings. Field order matches canonical key order.
type iWorkload struct {
	name uint32
	runs uint64
}

type iBlock struct {
	unit, module, function uint32
	addr                   uint64
	ring                   uint8
	blen                   uint32
	count                  uint64
}

type iOp struct {
	mnemonic uint32
	ring     uint8
	mass     uint64
}

// iWorkloadCmp, iBlockCmp and iOpCmp are the interned rows' canonical
// order: because symbol IDs are assigned in sorted-table order, integer
// ID comparison is string comparison, and these are workloadKeyCmp,
// blockKeyCmp and opKeyCmp on integers.
func iWorkloadCmp(a, b *iWorkload) int { return cmp.Compare(a.name, b.name) }

func iBlockCmp(a, b *iBlock) int {
	switch {
	case a.unit != b.unit:
		if a.unit < b.unit {
			return -1
		}
		return 1
	case a.module != b.module:
		if a.module < b.module {
			return -1
		}
		return 1
	case a.function != b.function:
		if a.function < b.function {
			return -1
		}
		return 1
	case a.addr != b.addr:
		if a.addr < b.addr {
			return -1
		}
		return 1
	case a.ring != b.ring:
		if a.ring < b.ring {
			return -1
		}
		return 1
	case a.blen != b.blen:
		if a.blen < b.blen {
			return -1
		}
		return 1
	}
	return 0
}

func iOpCmp(a, b *iOp) int {
	switch {
	case a.mnemonic != b.mnemonic:
		if a.mnemonic < b.mnemonic {
			return -1
		}
		return 1
	case a.ring != b.ring:
		if a.ring < b.ring {
			return -1
		}
		return 1
	}
	return 0
}

// symLookup interns strings into a growing table, caching the last hit
// per call site: canonical sections keep equal strings in runs (and
// rows decoded from one file share backing arrays), so the map is
// consulted only at run boundaries.
type symLookup struct {
	ids  map[string]uint32
	syms []string
}

func (t *symLookup) id(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.syms))
	t.ids[s] = id
	t.syms = append(t.syms, s)
	return id
}

// symRun is that per-call-site cache: one row field's last string and
// its ID.
type symRun struct {
	s   string
	sym uint32
	ok  bool
}

func (r *symRun) id(t *symLookup, s string) uint32 {
	if !r.ok || s != r.s {
		r.s, r.sym, r.ok = s, t.id(s), true
	}
	return r.sym
}

// Intern converts a profile to interned form: canonicalize it if
// needed, collect its strings, and sort them into the table.
// Intern(p).Profile() equals Canonical(p).
func Intern(p *Profile) *Interned {
	if p == nil {
		return &Interned{}
	}
	if !isCanonical(p) {
		p = canonicalize(p)
	}
	t := &symLookup{ids: make(map[string]uint32)}
	var name, unit, module, function, mnemonic symRun
	in := &Interned{
		workloads: make([]iWorkload, len(p.Workloads)),
		blocks:    make([]iBlock, len(p.Blocks)),
		ops:       make([]iOp, len(p.Ops)),
	}
	for i, w := range p.Workloads {
		in.workloads[i] = iWorkload{name: name.id(t, w.Name), runs: w.Runs}
	}
	for i := range p.Blocks {
		b := &p.Blocks[i]
		in.blocks[i] = iBlock{
			unit: unit.id(t, b.Unit), module: module.id(t, b.Module), function: function.id(t, b.Function),
			addr: b.Addr, ring: b.Ring, blen: b.Len, count: b.Count,
		}
	}
	for i, o := range p.Ops {
		in.ops[i] = iOp{mnemonic: mnemonic.id(t, o.Mnemonic), ring: o.Ring, mass: o.Mass}
	}
	in.syms = t.syms
	in.sortSyms()
	return in
}

// sortSyms sorts the symbol table and rewrites every row ID through
// the resulting permutation.
func (in *Interned) sortSyms() {
	n := len(in.syms)
	if n == 0 {
		return
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return in.syms[perm[i]] < in.syms[perm[j]] })
	sorted := make([]string, n)
	remap := make([]uint32, n)
	for rank, old := range perm {
		sorted[rank] = in.syms[old]
		remap[old] = uint32(rank)
	}
	in.syms = sorted
	in.remapIDs(remap)
}

// remapIDs rewrites every row's symbol IDs through remap, in place.
func (in *Interned) remapIDs(remap []uint32) {
	for i := range in.workloads {
		in.workloads[i].name = remap[in.workloads[i].name]
	}
	for i := range in.blocks {
		b := &in.blocks[i]
		b.unit, b.module, b.function = remap[b.unit], remap[b.module], remap[b.function]
	}
	for i := range in.ops {
		in.ops[i].mnemonic = remap[in.ops[i].mnemonic]
	}
}

// Profile materializes the interned form back to a canonical Profile.
// Strings are shared with the symbol table; row slices are fresh, so
// the result is the caller's own.
func (in *Interned) Profile() *Profile {
	out := &Profile{}
	if len(in.workloads) > 0 {
		out.Workloads = make([]WorkloadWeight, len(in.workloads))
		for i, w := range in.workloads {
			out.Workloads[i] = WorkloadWeight{Name: in.syms[w.name], Runs: w.runs}
		}
	}
	if len(in.blocks) > 0 {
		out.Blocks = make([]Block, len(in.blocks))
		for i := range in.blocks {
			b := &in.blocks[i]
			out.Blocks[i] = Block{
				Unit: in.syms[b.unit], Module: in.syms[b.module], Function: in.syms[b.function],
				Addr: b.addr, Ring: b.ring, Len: b.blen, Count: b.count,
			}
		}
	}
	if len(in.ops) > 0 {
		out.Ops = make([]OpMass, len(in.ops))
		for i := range in.ops {
			o := &in.ops[i]
			out.Ops[i] = OpMass{Mnemonic: in.syms[o.mnemonic], Ring: o.ring, Mass: o.mass}
		}
	}
	return out
}
