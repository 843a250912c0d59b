package isa

// Taxonomies let users classify instructions into custom, possibly
// overlapping groups — the paper's analyzer supports "the easy creation
// of custom instruction taxonomies based on instruction properties",
// e.g. a "long latency instructions" group (DIV, SQRT, XCHG R,M) or a
// "synchronization instructions" group (XADD, LOCK variants).

// Group is a named predicate over instruction attributes.
type Group struct {
	Name  string
	Match func(Info) bool
}

// Taxonomy is an ordered list of groups. An instruction is classified
// into the first group whose predicate matches; instructions matching no
// group fall into the Other bucket.
type Taxonomy struct {
	Name   string
	Groups []Group
}

// Classify returns the name of the first matching group, or "OTHER" when
// no group matches.
func (t Taxonomy) Classify(op Op) string {
	info := op.Info()
	for _, g := range t.Groups {
		if g.Match(info) {
			return g.Name
		}
	}
	return "OTHER"
}

// Buckets returns the group names in classification order, with the
// trailing OTHER bucket included.
func (t Taxonomy) Buckets() []string {
	names := make([]string, 0, len(t.Groups)+1)
	for _, g := range t.Groups {
		names = append(names, g.Name)
	}
	return append(names, "OTHER")
}

// ByExtension is the built-in taxonomy splitting instructions by ISA
// family, the breakdown used throughout the paper's Fitter case study.
func ByExtension() Taxonomy {
	mk := func(e Ext) Group {
		return Group{Name: e.String(), Match: func(in Info) bool { return in.Ext == e }}
	}
	return Taxonomy{
		Name:   "instruction set",
		Groups: []Group{mk(AVX), mk(SSE), mk(X87), mk(Base)},
	}
}

// ByPacking is the built-in taxonomy splitting instructions into packed,
// scalar and unpacked groups — the PACKING axis of the CLForward view
// (Table 8).
func ByPacking() Taxonomy {
	mk := func(p Packing) Group {
		return Group{Name: p.String(), Match: func(in Info) bool { return in.Packing == p }}
	}
	return Taxonomy{
		Name:   "packing",
		Groups: []Group{mk(Packed), mk(Scalar), mk(NoPacking)},
	}
}

// LongLatency is the example user-defined group from the paper: DIV,
// SQRT, "XCHG R,M" and other operations whose latency dominates
// surrounding code.
func LongLatency() Taxonomy {
	return Taxonomy{
		Name: "long latency instructions",
		Groups: []Group{{
			Name:  "LONG_LATENCY",
			Match: func(in Info) bool { return in.IsLongLatency() },
		}},
	}
}

// Synchronization is the example user-defined group containing XADD and
// LOCK variants.
func Synchronization() Taxonomy {
	return Taxonomy{
		Name: "synchronization instructions",
		Groups: []Group{{
			Name:  "SYNC",
			Match: func(in Info) bool { return in.Cat == CatSync },
		}},
	}
}

// MemoryAccess groups instructions by whether they read or write memory,
// one of the secondary attributes the analyzer derives.
func MemoryAccess() Taxonomy {
	return Taxonomy{
		Name: "memory access",
		Groups: []Group{
			{Name: "READ_WRITE", Match: func(in Info) bool { return in.ReadsMem && in.WritesMem }},
			{Name: "READ", Match: func(in Info) bool { return in.ReadsMem }},
			{Name: "WRITE", Match: func(in Info) bool { return in.WritesMem }},
			{Name: "NO_MEM", Match: func(in Info) bool { return true }},
		},
	}
}
