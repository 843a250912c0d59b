package isa

// Taxonomies classify instructions into named groups by their
// attributes — the paper's analyzer supports "the easy creation of
// custom instruction taxonomies based on instruction properties". The
// analyzer's pivot views and the fleet tables use MemoryAccess.

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
