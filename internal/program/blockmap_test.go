package program_test

// The block map's oracle: BlockAt and BlocksBetween must answer exactly
// as the binary searches over the address-sorted blocks they replaced,
// which live on here as the reference.

import (
	"math"
	"sort"
	"testing"

	"hbbp/internal/isa"
	"hbbp/internal/program"
	"hbbp/internal/workloads"
)

// searchBlockAt is the reference BlockAt: the first block whose end
// exceeds addr is the only one that can contain it.
func searchBlockAt(p *program.Program, addr uint64) *program.Block {
	blocks := p.Blocks()
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].End() > addr })
	if i < len(blocks) && blocks[i].Contains(addr) {
		return blocks[i]
	}
	return nil
}

// searchBlocksBetween is the reference BlocksBetween: one binary search
// per endpoint.
func searchBlocksBetween(p *program.Program, from, to uint64) []*program.Block {
	if to < from {
		return nil
	}
	blocks := p.Blocks()
	i := sort.Search(len(blocks), func(k int) bool { return blocks[k].End() > from })
	if i == len(blocks) || !blocks[i].Contains(from) {
		return nil
	}
	j := i + sort.Search(len(blocks)-i, func(k int) bool { return blocks[i+k].End() > to })
	if j == len(blocks) || !blocks[j].Contains(to) {
		return nil
	}
	return blocks[i : j+1]
}

// sameBlocks reports whether two BlocksBetween answers are identical:
// both nil, or the same run of blocks.
func sameBlocks(a, b []*program.Block) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	return len(a) == 0 || (a[0] == b[0] && a[len(a)-1] == b[len(b)-1])
}

// probes returns the addresses where a block map can go wrong: each
// block boundary and its neighbours, the edges and middle of every
// inter-module gap, and addresses below and above the whole program.
func probes(p *program.Program) []uint64 {
	out := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1}
	for _, b := range p.Blocks() {
		for _, a := range []uint64{b.Addr, b.End(), b.LastAddr()} {
			out = append(out, a-1, a, a+1)
		}
	}
	for _, m := range p.Modules {
		end := m.Base + m.Size()
		out = append(out, m.Base-1, m.Base, end-1, end, end+1, end+0x8000)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkBlockMap compares the block map with the reference on every
// byte of every module and on every probe, alone and in pairs.
func checkBlockMap(t *testing.T, p *program.Program) {
	t.Helper()
	for _, m := range p.Modules {
		for a := m.Base; a < m.Base+m.Size(); a++ {
			if got, want := p.BlockAt(a), searchBlockAt(p, a); got != want {
				t.Fatalf("%s: BlockAt(%#x) = %v, want %v", p.Name, a, got, want)
			}
			blk := searchBlockAt(p, a)
			if got, want := p.BlocksBetween(blk.Addr, a), searchBlocksBetween(p, blk.Addr, a); !sameBlocks(got, want) {
				t.Fatalf("%s: BlocksBetween(%#x, %#x) = %v, want %v", p.Name, blk.Addr, a, got, want)
			}
		}
	}
	pr := probes(p)
	for k, from := range pr {
		if got, want := p.BlockAt(from), searchBlockAt(p, from); got != want {
			t.Fatalf("%s: BlockAt(%#x) = %v, want %v", p.Name, from, got, want)
		}
		// Each probe against its neighbours on both sides, and against
		// a spread of probes further on (streams across modules).
		for d := -3; d < 40; d++ {
			if k+d < 0 || k+d >= len(pr) {
				continue
			}
			to := pr[k+d]
			if got, want := p.BlocksBetween(from, to), searchBlocksBetween(p, from, to); !sameBlocks(got, want) {
				t.Fatalf("%s: BlocksBetween(%#x, %#x) = %d blocks, want %d", p.Name, from, to, len(got), len(want))
			}
		}
		for _, to := range []uint64{pr[len(pr)/2], pr[len(pr)-5], pr[(k*7919)%len(pr)]} {
			if got, want := p.BlocksBetween(from, to), searchBlocksBetween(p, from, to); !sameBlocks(got, want) {
				t.Fatalf("%s: BlocksBetween(%#x, %#x) = %d blocks, want %d", p.Name, from, to, len(got), len(want))
			}
		}
	}
}

// TestBlockMapMatchesSearch checks the block map against the reference
// on the program of every registry workload.
func TestBlockMapMatchesSearch(t *testing.T) {
	reg := workloads.Default()
	for _, name := range reg.Names() {
		w, err := reg.Build(name)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		checkBlockMap(t, w.Prog)
	}
}

// smallProgram builds a two-module program (a user module and a kernel
// module) from a byte string: each byte picks a block's length and
// whether the block starts a new function.
func smallProgram(t testing.TB, shape []byte) *program.Program {
	b := program.NewBuilder("fuzz")
	mods := []*program.Module{b.Module("user", program.RingUser), b.Module("kernel", program.RingKernel)}
	ops := []isa.Op{isa.NOP, isa.MOV, isa.ADD, isa.VADDPS, isa.IMUL}
	for mi, m := range mods {
		var fn *program.Function
		var prev *program.Block
		for k, c := range shape {
			if k%2 != mi {
				continue
			}
			if fn == nil || c&0x80 != 0 {
				if prev != nil {
					b.Return(prev)
				}
				fn = b.Function(m, "f"+string(rune('a'+k%26)))
				prev = nil
			}
			body := make([]isa.Op, 0, 1+int(c%7))
			for i := 0; i <= int(c%7); i++ {
				body = append(body, ops[(int(c)+i)%len(ops)])
			}
			blk := b.Block(fn, body...)
			if prev != nil {
				b.Fallthrough(prev, blk)
			}
			prev = blk
		}
		if prev != nil {
			b.Return(prev)
		}
	}
	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

// FuzzBlocksBetween compares BlocksBetween and BlockAt with the
// reference on small built programs, at addresses near the program's
// blocks chosen by the fuzzer.
func FuzzBlocksBetween(f *testing.F) {
	f.Add([]byte{3, 9, 0x85, 1, 0, 6}, uint64(0), uint64(4), uint32(2), uint32(7))
	f.Add([]byte{0x80, 0x80, 2}, uint64(1), uint64(0), uint32(0), uint32(3))
	f.Add([]byte{6, 6, 6, 6, 6, 6, 6, 6, 6, 6}, uint64(9), uint64(30), uint32(1), uint32(1))
	f.Fuzz(func(t *testing.T, shape []byte, dFrom, dTo uint64, kFrom, kTo uint32) {
		if len(shape) > 64 {
			shape = shape[:64]
		}
		p := smallProgram(t, shape)
		pr := probes(p)
		from := pr[int(kFrom)%len(pr)] + dFrom%64
		to := pr[int(kTo)%len(pr)] + dTo%64
		if got, want := p.BlockAt(from), searchBlockAt(p, from); got != want {
			t.Fatalf("BlockAt(%#x) = %v, want %v", from, got, want)
		}
		if got, want := p.BlocksBetween(from, to), searchBlocksBetween(p, from, to); !sameBlocks(got, want) {
			t.Fatalf("BlocksBetween(%#x, %#x) = %d blocks, want %d", from, to, len(got), len(want))
		}
		checkBlockMap(t, p)
	})
}
