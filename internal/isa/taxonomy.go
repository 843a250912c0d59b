package isa

// MemoryAccess classifies an instruction by whether it reads or writes
// memory, one of the secondary attributes the analyzer derives: the
// analyzer's pivot views and the fleet tables group by it.
func MemoryAccess(op Op) string {
	info := op.Info()
	switch {
	case info.ReadsMem && info.WritesMem:
		return "READ_WRITE"
	case info.ReadsMem:
		return "READ"
	case info.WritesMem:
		return "WRITE"
	default:
		return "NO_MEM"
	}
}
