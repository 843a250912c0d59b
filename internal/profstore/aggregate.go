package profstore

import (
	"slices"
	"sync"
	"unique"
)

// Aggregator merges profiles online: many goroutines ingest while
// readers take consistent snapshots, the live counterpart of [Merge]
// for fleets of concurrent sessions.
//
// Mass lives in integer-keyed maps behind one mutex. Every string an
// ingest brings is resolved to an aggregator symbol ID once per
// profile, so the locked section is a table remap plus integer map
// adds; [Aggregator.Ingest] interns its profile before taking the lock,
// and profiles decoded off the wire with [LoadInterned] arrive already
// interned. A lock per profile, rather than lock stripes taken per
// row, is what pays on the hosts measured. One lock also makes every
// ingest atomic with respect to Snapshot: a snapshot reflects every
// Ingest that returned before the call and no partial ones. Snapshot
// holds the lock only to copy the raw counters out; sorting and
// canonicalization happen after it is released.
//
// Because the maps accumulate the same integer masses Merge would, a
// Snapshot is bit-identical to Merge over the same profiles — at any
// ingestion parallelism, in any arrival order.
//
// The symbol table holds the process-wide canonical copy of each
// string (unique.Make), taken once per new symbol, and the aggregator
// keeps the handles it made for as long as it lives. So every
// aggregator alive at once — a tenant's overlapping epochs — shares one
// copy of each unit, module, function and mnemonic string, their
// snapshots point at the same bytes, and the string compares of a
// later merge of those snapshots return on the shared pointer instead
// of comparing bytes. The handles are what keep the copy canonical
// across epochs: without them the collector could drop it between one
// epoch's aggregator and the next, and the next would intern a fresh
// copy.
type Aggregator struct {
	mu        sync.Mutex
	syms      symLookup // first-seen order; sorted at snapshot time
	handles   []unique.Handle[string]
	workloads map[uint32]uint64
	blocks    map[aggBlockKey]uint64
	ops       map[aggOpKey]uint64
}

// aggBlockKey is a block identity with interned strings — the map key.
// Field order matches canonical key order.
type aggBlockKey struct {
	unit, module, function uint32
	addr                   uint64
	ring                   uint8
	blen                   uint32
}

// aggOpKey is aggBlockKey for ops.
type aggOpKey struct {
	mnemonic uint32
	ring     uint8
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		syms:      symLookup{ids: make(map[string]uint32)},
		workloads: make(map[uint32]uint64),
		blocks:    make(map[aggBlockKey]uint64),
		ops:       make(map[aggOpKey]uint64),
	}
}

// Ingest folds one profile into the aggregator. Safe for any number of
// concurrent callers; each call is atomic with respect to Snapshot.
// Nil profiles are ignored.
func (a *Aggregator) Ingest(p *Profile) {
	if p != nil {
		a.IngestInterned(Intern(p))
	}
}

// IngestInterned folds an interned profile in — the wire-ingest path.
// The profile's symbol table is remapped onto the aggregator's once,
// and every row is then integer work. Semantically identical to Ingest
// of the materialized profile.
func (a *Aggregator) IngestInterned(in *Interned) {
	if in == nil {
		return
	}
	var remapBuf [64]uint32
	remap := remapBuf[:0]
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range in.syms {
		remap = append(remap, a.sym(s))
	}
	for _, w := range in.workloads {
		a.workloads[remap[w.name]] += w.runs
	}
	for i := range in.blocks {
		b := &in.blocks[i]
		a.blocks[aggBlockKey{
			unit: remap[b.unit], module: remap[b.module], function: remap[b.function],
			addr: b.addr, ring: b.ring, blen: b.blen,
		}] += b.count
	}
	for i := range in.ops {
		o := &in.ops[i]
		a.ops[aggOpKey{mnemonic: remap[o.mnemonic], ring: o.ring}] += o.mass
	}
}

// sym returns s's symbol ID, adding the canonical copy of s on a miss.
// Called with a.mu held.
func (a *Aggregator) sym(s string) uint32 {
	if id, ok := a.syms.ids[s]; ok {
		return id
	}
	h := unique.Make(s)
	a.handles = append(a.handles, h)
	return a.syms.id(h.Value())
}

// Snapshot returns the merged view of everything ingested so far, as a
// canonical profile. It is consistent: every Ingest that returned
// before the call is fully included, and no in-flight Ingest is
// partially visible. Ingestion resumes the moment the raw counters are
// copied out; canonicalization runs outside the lock.
func (a *Aggregator) Snapshot() *Profile {
	a.mu.Lock()
	in := &Interned{
		syms:      slices.Clone(a.syms.syms),
		workloads: make([]iWorkload, 0, len(a.workloads)),
		blocks:    make([]iBlock, 0, len(a.blocks)),
		ops:       make([]iOp, 0, len(a.ops)),
	}
	for id, runs := range a.workloads {
		in.workloads = append(in.workloads, iWorkload{name: id, runs: runs})
	}
	for k, count := range a.blocks {
		in.blocks = append(in.blocks, iBlock{
			unit: k.unit, module: k.module, function: k.function,
			addr: k.addr, ring: k.ring, blen: k.blen, count: count,
		})
	}
	for k, mass := range a.ops {
		in.ops = append(in.ops, iOp{mnemonic: k.mnemonic, ring: k.ring, mass: mass})
	}
	a.mu.Unlock()
	// Keys are unique in the maps, so sorting the table and then the
	// rows by index is all canonicalization needs.
	in.sortSyms()
	slices.SortFunc(in.workloads, func(x, y iWorkload) int { return iWorkloadCmp(&x, &y) })
	slices.SortFunc(in.blocks, func(x, y iBlock) int { return iBlockCmp(&x, &y) })
	slices.SortFunc(in.ops, func(x, y iOp) int { return iOpCmp(&x, &y) })
	return in.Profile()
}
