package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpTableComplete(t *testing.T) {
	for op := Op(1); op < numOps; op++ {
		info := infoTable[op]
		if info.Name == "" {
			t.Fatalf("opcode %d has no table entry", uint16(op))
		}
		if info.Bytes < 1 || info.Bytes > 15 {
			t.Errorf("%s: encoded length %d out of x86 range [1,15]", info.Name, info.Bytes)
		}
		if info.Latency < 1 {
			t.Errorf("%s: latency %d must be at least 1 cycle", info.Name, info.Latency)
		}
	}
}

func TestOpNamesUnique(t *testing.T) {
	seen := make(map[string]Op)
	for op := Op(1); op < numOps; op++ {
		name := op.String()
		if prev, dup := seen[name]; dup {
			t.Errorf("mnemonic %q defined for both %d and %d", name, prev, op)
		}
		seen[name] = op
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, op := range All() {
		got, err := Parse(op.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", op.String(), err)
		}
		if got != op {
			t.Errorf("Parse(%q) = %v, want %v", op.String(), got, op)
		}
	}
}

func TestParseUnknown(t *testing.T) {
	if _, err := Parse("FROBNICATE"); err == nil {
		t.Fatal("Parse of unknown mnemonic succeeded")
	}
}

func TestInvalidOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Info() on invalid opcode did not panic")
		}
	}()
	Op(0).Info()
}

func TestBranchClassification(t *testing.T) {
	branches := []Op{JMP, JZ, JNZ, JLE, JNLE, CALL, RET_NEAR, SYSCALL, SYSRET}
	for _, op := range branches {
		if !op.IsBranch() {
			t.Errorf("%v should be a branch", op)
		}
	}
	nonBranches := []Op{MOV, ADD, DIVPS, VADDPS, FSQRT, NOP}
	for _, op := range nonBranches {
		if op.IsBranch() {
			t.Errorf("%v should not be a branch", op)
		}
	}
}

func TestLongLatency(t *testing.T) {
	long := []Op{DIV, IDIV, FDIV, FSQRT, DIVPS, SQRTPS, VDIVPS, XCHG, XADD}
	for _, op := range long {
		if !op.Info().IsLongLatency() {
			t.Errorf("%v (latency %d) should be long latency", op, op.Latency())
		}
	}
	short := []Op{MOV, ADD, ADDPS, VADDPS, JMP}
	for _, op := range short {
		if op.Info().IsLongLatency() {
			t.Errorf("%v (latency %d) should not be long latency", op, op.Latency())
		}
	}
}

func TestExtMembership(t *testing.T) {
	cases := []struct {
		op  Op
		ext Ext
	}{
		{MOV, Base}, {DIV, Base}, {FADD, X87}, {FSQRT, X87},
		{ADDPS, SSE}, {CVTSI2SD, SSE}, {VADDPS, AVX}, {VFMADD231PS, AVX},
	}
	for _, c := range cases {
		if got := c.op.Info().Ext; got != c.ext {
			t.Errorf("%v: ext = %v, want %v", c.op, got, c.ext)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ops := All()
	code := Encode(ops)
	decoded, err := Decode(code, 0x400000)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(decoded) != len(ops) {
		t.Fatalf("decoded %d instructions, want %d", len(decoded), len(ops))
	}
	addr := uint64(0x400000)
	for i, d := range decoded {
		if d.Op != ops[i] {
			t.Errorf("inst %d: decoded %v, want %v", i, d.Op, ops[i])
		}
		if d.Addr != addr {
			t.Errorf("inst %d: addr %#x, want %#x", i, d.Addr, addr)
		}
		if d.Len != ops[i].Bytes() {
			t.Errorf("inst %d (%v): len %d, want %d", i, ops[i], d.Len, ops[i].Bytes())
		}
		addr += uint64(d.Len)
	}
}

func TestEncodeLengthMatchesTable(t *testing.T) {
	for _, op := range All() {
		enc := AppendEncode(nil, op)
		if len(enc) != op.Bytes() {
			t.Errorf("%v: encoded %d bytes, table says %d", op, len(enc), op.Bytes())
		}
	}
}

// Property: any random opcode sequence round-trips through the codec.
func TestQuickCodecRoundTrip(t *testing.T) {
	ops := All()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := make([]Op, int(n)%64+1)
		for i := range seq {
			seq[i] = ops[rng.Intn(len(ops))]
		}
		code := Encode(seq)
		dec, err := Decode(code, 0x1000)
		if err != nil || len(dec) != len(seq) {
			return false
		}
		for i := range seq {
			if dec[i].Op != seq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		code []byte
	}{
		{"empty", nil},
		{"unknown leading byte", []byte{0x05}},
		{"truncated wide", []byte{wideMarker, 0x01}},
		{"invalid wide opcode", []byte{wideMarker, 0xFF, 0xFF, padByte}},
	}
	for _, c := range cases {
		if _, err := DecodeOne(c.code, 0); err == nil {
			t.Errorf("%s: DecodeOne succeeded, want error", c.name)
		}
	}
}

func TestMemoryAccessTaxonomy(t *testing.T) {
	if got := MemoryAccess(XCHG); got != "READ_WRITE" {
		t.Errorf("XCHG: %q", got)
	}
	if got := MemoryAccess(POP); got != "READ" {
		t.Errorf("POP: %q", got)
	}
	if got := MemoryAccess(PUSH); got != "WRITE" {
		t.Errorf("PUSH: %q", got)
	}
	if got := MemoryAccess(ADD); got != "NO_MEM" {
		t.Errorf("ADD: %q", got)
	}
}

func TestStringersNonEmpty(t *testing.T) {
	for e := Ext(0); e < numExt; e++ {
		if e.String() == "" {
			t.Errorf("Ext(%d) has empty String()", e)
		}
	}
	for c := Category(0); c < numCategory; c++ {
		if c.String() == "" {
			t.Errorf("Category(%d) has empty String()", c)
		}
	}
	for p := NoPacking; p <= Packed; p++ {
		if p.String() == "" {
			t.Errorf("Packing(%d) has empty String()", p)
		}
	}
}
