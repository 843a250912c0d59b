package profstore

// The canonical order as two-way Less functions: the reference that
// TestKeyCmpAgreesWithLess pins blockKeyCmp and opKeyCmp to, written
// field by field with Go's string and integer operators and kept apart
// from the compares the package uses.

// blockKeyLess orders blocks canonically by identity.
func blockKeyLess(a, b *Block) bool {
	if a.Unit != b.Unit {
		return a.Unit < b.Unit
	}
	if a.Module != b.Module {
		return a.Module < b.Module
	}
	if a.Function != b.Function {
		return a.Function < b.Function
	}
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	if a.Ring != b.Ring {
		return a.Ring < b.Ring
	}
	return a.Len < b.Len
}

// opKeyLess orders op masses canonically by key.
func opKeyLess(a, b *OpMass) bool {
	if a.Mnemonic != b.Mnemonic {
		return a.Mnemonic < b.Mnemonic
	}
	return a.Ring < b.Ring
}
