package isa

import (
	"fmt"
	"sort"
)

// Op identifies one instruction in the table. The zero value is invalid,
// so decoded or generated instruction streams can never silently carry an
// uninitialised opcode.
type Op uint16

// Base (scalar integer) instructions.
const (
	opInvalid Op = iota

	MOV
	MOVSXD
	MOVZX
	LEA
	ADD
	SUB
	INC
	DEC
	NEG
	IMUL
	MUL
	DIV
	IDIV
	CDQE
	CDQ
	AND
	OR
	XOR
	NOT
	SHL
	SHR
	SAR
	ROL
	CMP
	TEST
	SETcc
	CMOVcc
	JMP
	JZ
	JNZ
	JLE
	JNLE
	JL
	JNL
	JB
	JNB
	JS
	CALL
	RET_NEAR
	PUSH
	POP
	NOP
	XCHG
	XADD
	CMPXCHG
	LOCK_ADD
	SYSCALL
	SYSRET

	// X87 legacy floating point.
	FLD
	FST
	FSTP
	FXCH
	FADD
	FSUB
	FMUL
	FDIV
	FSQRT
	FSIN
	FCOMI
	FILD
	FISTP

	// SSE (128-bit) instructions.
	MOVAPS
	MOVUPS
	MOVSS
	MOVSD_X
	MOVD
	ADDPS
	ADDSS
	SUBPS
	SUBSS
	MULPS
	MULSS
	DIVPS
	DIVSS
	SQRTPS
	SQRTSS
	MINPS
	MAXPS
	XORPS
	ANDPS
	UCOMISS
	CMPPS
	SHUFPS
	UNPCKLPS
	CVTSI2SS
	CVTSI2SD
	CVTTSS2SI
	CVTPS2PD
	PADDD
	PSUBD
	PMULLD
	PAND
	POR
	PCMPEQD

	// AVX (256-bit) instructions.
	VMOVAPS
	VMOVUPS
	VMOVSS
	VBROADCASTSS
	VADDPS
	VADDSS
	VSUBPS
	VMULPS
	VMULSS
	VDIVPS
	VDIVSS
	VSQRTPS
	VMINPS
	VMAXPS
	VXORPS
	VANDPS
	VUCOMISS
	VCMPPS
	VSHUFPS
	VCVTSI2SS
	VCVTDQ2PS
	VFMADD231PS
	VFMADD231SS
	VPADDD
	VPMULLD
	VZEROUPPER

	numOps
)

// NumOps is the number of defined opcodes, excluding the invalid zero
// value. Dense Op-indexed arrays can be sized with NumOps+1.
const NumOps = int(numOps) - 1

// infoTable carries the static attributes for every opcode. Latencies are
// representative Ivy-Bridge-class figures (after Fog's instruction
// tables): simple ALU ops 1 cycle, multiplies 3-5, divisions and square
// roots 10-40, and memory-touching moves slightly above register moves.
var infoTable = [numOps]Info{
	opInvalid: {Name: "INVALID", Cat: CatOther, Latency: 1, Bytes: 1},

	MOV:      {Name: "MOV", Ext: Base, Cat: CatMove, Latency: 1, Bytes: 3, Operands: 2, ReadsMem: true},
	MOVSXD:   {Name: "MOVSXD", Ext: Base, Cat: CatMove, Latency: 1, Bytes: 4, Operands: 2, ReadsMem: true},
	MOVZX:    {Name: "MOVZX", Ext: Base, Cat: CatMove, Latency: 1, Bytes: 4, Operands: 2, ReadsMem: true},
	LEA:      {Name: "LEA", Ext: Base, Cat: CatArith, Latency: 1, Bytes: 4, Operands: 2},
	ADD:      {Name: "ADD", Ext: Base, Cat: CatArith, Latency: 1, Bytes: 3, Operands: 2},
	SUB:      {Name: "SUB", Ext: Base, Cat: CatArith, Latency: 1, Bytes: 3, Operands: 2},
	INC:      {Name: "INC", Ext: Base, Cat: CatArith, Latency: 1, Bytes: 2, Operands: 1},
	DEC:      {Name: "DEC", Ext: Base, Cat: CatArith, Latency: 1, Bytes: 2, Operands: 1},
	NEG:      {Name: "NEG", Ext: Base, Cat: CatArith, Latency: 1, Bytes: 2, Operands: 1},
	IMUL:     {Name: "IMUL", Ext: Base, Cat: CatArith, Latency: 3, Bytes: 4, Operands: 2},
	MUL:      {Name: "MUL", Ext: Base, Cat: CatArith, Latency: 3, Bytes: 3, Operands: 1},
	DIV:      {Name: "DIV", Ext: Base, Cat: CatDivide, Latency: 25, Bytes: 3, Operands: 1},
	IDIV:     {Name: "IDIV", Ext: Base, Cat: CatDivide, Latency: 28, Bytes: 3, Operands: 1},
	CDQE:     {Name: "CDQE", Ext: Base, Cat: CatConvert, Latency: 1, Bytes: 2, Operands: 0},
	CDQ:      {Name: "CDQ", Ext: Base, Cat: CatConvert, Latency: 1, Bytes: 1, Operands: 0},
	AND:      {Name: "AND", Ext: Base, Cat: CatLogic, Latency: 1, Bytes: 3, Operands: 2},
	OR:       {Name: "OR", Ext: Base, Cat: CatLogic, Latency: 1, Bytes: 3, Operands: 2},
	XOR:      {Name: "XOR", Ext: Base, Cat: CatLogic, Latency: 1, Bytes: 3, Operands: 2},
	NOT:      {Name: "NOT", Ext: Base, Cat: CatLogic, Latency: 1, Bytes: 2, Operands: 1},
	SHL:      {Name: "SHL", Ext: Base, Cat: CatLogic, Latency: 1, Bytes: 3, Operands: 2},
	SHR:      {Name: "SHR", Ext: Base, Cat: CatLogic, Latency: 1, Bytes: 3, Operands: 2},
	SAR:      {Name: "SAR", Ext: Base, Cat: CatLogic, Latency: 1, Bytes: 3, Operands: 2},
	ROL:      {Name: "ROL", Ext: Base, Cat: CatLogic, Latency: 1, Bytes: 3, Operands: 2},
	CMP:      {Name: "CMP", Ext: Base, Cat: CatCompare, Latency: 1, Bytes: 3, Operands: 2, ReadsMem: true},
	TEST:     {Name: "TEST", Ext: Base, Cat: CatCompare, Latency: 1, Bytes: 3, Operands: 2},
	SETcc:    {Name: "SETcc", Ext: Base, Cat: CatLogic, Latency: 1, Bytes: 3, Operands: 1},
	CMOVcc:   {Name: "CMOVcc", Ext: Base, Cat: CatMove, Latency: 2, Bytes: 4, Operands: 2},
	JMP:      {Name: "JMP", Ext: Base, Cat: CatJump, Latency: 1, Bytes: 2, Operands: 1},
	JZ:       {Name: "JZ", Ext: Base, Cat: CatCondBranch, Latency: 1, Bytes: 2, Operands: 1},
	JNZ:      {Name: "JNZ", Ext: Base, Cat: CatCondBranch, Latency: 1, Bytes: 2, Operands: 1},
	JLE:      {Name: "JLE", Ext: Base, Cat: CatCondBranch, Latency: 1, Bytes: 2, Operands: 1},
	JNLE:     {Name: "JNLE", Ext: Base, Cat: CatCondBranch, Latency: 1, Bytes: 2, Operands: 1},
	JL:       {Name: "JL", Ext: Base, Cat: CatCondBranch, Latency: 1, Bytes: 2, Operands: 1},
	JNL:      {Name: "JNL", Ext: Base, Cat: CatCondBranch, Latency: 1, Bytes: 2, Operands: 1},
	JB:       {Name: "JB", Ext: Base, Cat: CatCondBranch, Latency: 1, Bytes: 2, Operands: 1},
	JNB:      {Name: "JNB", Ext: Base, Cat: CatCondBranch, Latency: 1, Bytes: 2, Operands: 1},
	JS:       {Name: "JS", Ext: Base, Cat: CatCondBranch, Latency: 1, Bytes: 2, Operands: 1},
	CALL:     {Name: "CALL", Ext: Base, Cat: CatCall, Latency: 2, Bytes: 5, Operands: 1, WritesMem: true},
	RET_NEAR: {Name: "RET_NEAR", Ext: Base, Cat: CatReturn, Latency: 2, Bytes: 1, Operands: 0, ReadsMem: true},
	PUSH:     {Name: "PUSH", Ext: Base, Cat: CatStack, Latency: 1, Bytes: 1, Operands: 1, WritesMem: true},
	POP:      {Name: "POP", Ext: Base, Cat: CatStack, Latency: 1, Bytes: 1, Operands: 1, ReadsMem: true},
	NOP:      {Name: "NOP", Ext: Base, Cat: CatNop, Latency: 1, Bytes: 1, Operands: 0},
	XCHG:     {Name: "XCHG", Ext: Base, Cat: CatSync, Latency: 20, Bytes: 3, Operands: 2, ReadsMem: true, WritesMem: true},
	XADD:     {Name: "XADD", Ext: Base, Cat: CatSync, Latency: 20, Bytes: 4, Operands: 2, ReadsMem: true, WritesMem: true},
	CMPXCHG:  {Name: "CMPXCHG", Ext: Base, Cat: CatSync, Latency: 20, Bytes: 4, Operands: 2, ReadsMem: true, WritesMem: true},
	LOCK_ADD: {Name: "LOCK_ADD", Ext: Base, Cat: CatSync, Latency: 18, Bytes: 4, Operands: 2, ReadsMem: true, WritesMem: true},
	SYSCALL:  {Name: "SYSCALL", Ext: Base, Cat: CatCall, Latency: 30, Bytes: 2, Operands: 0},
	SYSRET:   {Name: "SYSRET", Ext: Base, Cat: CatReturn, Latency: 30, Bytes: 2, Operands: 0},

	FLD:   {Name: "FLD", Ext: X87, Cat: CatMove, Packing: Scalar, Latency: 3, Bytes: 2, Operands: 1, ReadsMem: true, VecBits: 80},
	FST:   {Name: "FST", Ext: X87, Cat: CatMove, Packing: Scalar, Latency: 3, Bytes: 2, Operands: 1, WritesMem: true, VecBits: 80},
	FSTP:  {Name: "FSTP", Ext: X87, Cat: CatMove, Packing: Scalar, Latency: 3, Bytes: 2, Operands: 1, WritesMem: true, VecBits: 80},
	FXCH:  {Name: "FXCH", Ext: X87, Cat: CatMove, Packing: Scalar, Latency: 1, Bytes: 2, Operands: 1, VecBits: 80},
	FADD:  {Name: "FADD", Ext: X87, Cat: CatArith, Packing: Scalar, Latency: 3, Bytes: 2, Operands: 1, FLOPs: 1, VecBits: 80},
	FSUB:  {Name: "FSUB", Ext: X87, Cat: CatArith, Packing: Scalar, Latency: 3, Bytes: 2, Operands: 1, FLOPs: 1, VecBits: 80},
	FMUL:  {Name: "FMUL", Ext: X87, Cat: CatArith, Packing: Scalar, Latency: 5, Bytes: 2, Operands: 1, FLOPs: 1, VecBits: 80},
	FDIV:  {Name: "FDIV", Ext: X87, Cat: CatDivide, Packing: Scalar, Latency: 24, Bytes: 2, Operands: 1, FLOPs: 1, VecBits: 80},
	FSQRT: {Name: "FSQRT", Ext: X87, Cat: CatSqrt, Packing: Scalar, Latency: 27, Bytes: 2, Operands: 0, FLOPs: 1, VecBits: 80},
	FSIN:  {Name: "FSIN", Ext: X87, Cat: CatOther, Packing: Scalar, Latency: 80, Bytes: 2, Operands: 0, FLOPs: 1, VecBits: 80},
	FCOMI: {Name: "FCOMI", Ext: X87, Cat: CatCompare, Packing: Scalar, Latency: 3, Bytes: 2, Operands: 1, VecBits: 80},
	FILD:  {Name: "FILD", Ext: X87, Cat: CatConvert, Packing: Scalar, Latency: 4, Bytes: 2, Operands: 1, ReadsMem: true, VecBits: 80},
	FISTP: {Name: "FISTP", Ext: X87, Cat: CatConvert, Packing: Scalar, Latency: 4, Bytes: 2, Operands: 1, WritesMem: true, VecBits: 80},

	MOVAPS:    {Name: "MOVAPS", Ext: SSE, Cat: CatMove, Packing: Packed, Latency: 1, Bytes: 4, Operands: 2, ReadsMem: true, VecBits: 128},
	MOVUPS:    {Name: "MOVUPS", Ext: SSE, Cat: CatMove, Packing: Packed, Latency: 2, Bytes: 4, Operands: 2, ReadsMem: true, WritesMem: true, VecBits: 128},
	MOVSS:     {Name: "MOVSS", Ext: SSE, Cat: CatMove, Packing: Scalar, Latency: 1, Bytes: 4, Operands: 2, ReadsMem: true, VecBits: 32},
	MOVSD_X:   {Name: "MOVSD_X", Ext: SSE, Cat: CatMove, Packing: Scalar, Latency: 1, Bytes: 4, Operands: 2, ReadsMem: true, VecBits: 64},
	MOVD:      {Name: "MOVD", Ext: SSE, Cat: CatMove, Packing: Scalar, Latency: 1, Bytes: 4, Operands: 2, VecBits: 32},
	ADDPS:     {Name: "ADDPS", Ext: SSE, Cat: CatArith, Packing: Packed, Latency: 3, Bytes: 4, Operands: 2, FLOPs: 4, VecBits: 128},
	ADDSS:     {Name: "ADDSS", Ext: SSE, Cat: CatArith, Packing: Scalar, Latency: 3, Bytes: 4, Operands: 2, FLOPs: 1, VecBits: 32},
	SUBPS:     {Name: "SUBPS", Ext: SSE, Cat: CatArith, Packing: Packed, Latency: 3, Bytes: 4, Operands: 2, FLOPs: 4, VecBits: 128},
	SUBSS:     {Name: "SUBSS", Ext: SSE, Cat: CatArith, Packing: Scalar, Latency: 3, Bytes: 4, Operands: 2, FLOPs: 1, VecBits: 32},
	MULPS:     {Name: "MULPS", Ext: SSE, Cat: CatArith, Packing: Packed, Latency: 5, Bytes: 4, Operands: 2, FLOPs: 4, VecBits: 128},
	MULSS:     {Name: "MULSS", Ext: SSE, Cat: CatArith, Packing: Scalar, Latency: 5, Bytes: 4, Operands: 2, FLOPs: 1, VecBits: 32},
	DIVPS:     {Name: "DIVPS", Ext: SSE, Cat: CatDivide, Packing: Packed, Latency: 21, Bytes: 4, Operands: 2, FLOPs: 4, VecBits: 128},
	DIVSS:     {Name: "DIVSS", Ext: SSE, Cat: CatDivide, Packing: Scalar, Latency: 14, Bytes: 4, Operands: 2, FLOPs: 1, VecBits: 32},
	SQRTPS:    {Name: "SQRTPS", Ext: SSE, Cat: CatSqrt, Packing: Packed, Latency: 22, Bytes: 4, Operands: 2, FLOPs: 4, VecBits: 128},
	SQRTSS:    {Name: "SQRTSS", Ext: SSE, Cat: CatSqrt, Packing: Scalar, Latency: 14, Bytes: 4, Operands: 2, FLOPs: 1, VecBits: 32},
	MINPS:     {Name: "MINPS", Ext: SSE, Cat: CatArith, Packing: Packed, Latency: 3, Bytes: 4, Operands: 2, FLOPs: 4, VecBits: 128},
	MAXPS:     {Name: "MAXPS", Ext: SSE, Cat: CatArith, Packing: Packed, Latency: 3, Bytes: 4, Operands: 2, FLOPs: 4, VecBits: 128},
	XORPS:     {Name: "XORPS", Ext: SSE, Cat: CatLogic, Packing: Packed, Latency: 1, Bytes: 3, Operands: 2, VecBits: 128},
	ANDPS:     {Name: "ANDPS", Ext: SSE, Cat: CatLogic, Packing: Packed, Latency: 1, Bytes: 3, Operands: 2, VecBits: 128},
	UCOMISS:   {Name: "UCOMISS", Ext: SSE, Cat: CatCompare, Packing: Scalar, Latency: 2, Bytes: 4, Operands: 2, VecBits: 32},
	CMPPS:     {Name: "CMPPS", Ext: SSE, Cat: CatCompare, Packing: Packed, Latency: 3, Bytes: 5, Operands: 3, VecBits: 128},
	SHUFPS:    {Name: "SHUFPS", Ext: SSE, Cat: CatOther, Packing: Packed, Latency: 1, Bytes: 5, Operands: 3, VecBits: 128},
	UNPCKLPS:  {Name: "UNPCKLPS", Ext: SSE, Cat: CatOther, Packing: Packed, Latency: 1, Bytes: 4, Operands: 2, VecBits: 128},
	CVTSI2SS:  {Name: "CVTSI2SS", Ext: SSE, Cat: CatConvert, Packing: Scalar, Latency: 5, Bytes: 4, Operands: 2, VecBits: 32},
	CVTSI2SD:  {Name: "CVTSI2SD", Ext: SSE, Cat: CatConvert, Packing: Scalar, Latency: 5, Bytes: 4, Operands: 2, VecBits: 64},
	CVTTSS2SI: {Name: "CVTTSS2SI", Ext: SSE, Cat: CatConvert, Packing: Scalar, Latency: 5, Bytes: 4, Operands: 2, VecBits: 32},
	CVTPS2PD:  {Name: "CVTPS2PD", Ext: SSE, Cat: CatConvert, Packing: Packed, Latency: 2, Bytes: 4, Operands: 2, VecBits: 128},
	PADDD:     {Name: "PADDD", Ext: SSE, Cat: CatArith, Packing: Packed, Latency: 1, Bytes: 4, Operands: 2, VecBits: 128},
	PSUBD:     {Name: "PSUBD", Ext: SSE, Cat: CatArith, Packing: Packed, Latency: 1, Bytes: 4, Operands: 2, VecBits: 128},
	PMULLD:    {Name: "PMULLD", Ext: SSE, Cat: CatArith, Packing: Packed, Latency: 5, Bytes: 5, Operands: 2, VecBits: 128},
	PAND:      {Name: "PAND", Ext: SSE, Cat: CatLogic, Packing: Packed, Latency: 1, Bytes: 4, Operands: 2, VecBits: 128},
	POR:       {Name: "POR", Ext: SSE, Cat: CatLogic, Packing: Packed, Latency: 1, Bytes: 4, Operands: 2, VecBits: 128},
	PCMPEQD:   {Name: "PCMPEQD", Ext: SSE, Cat: CatCompare, Packing: Packed, Latency: 1, Bytes: 4, Operands: 2, VecBits: 128},

	VMOVAPS:      {Name: "VMOVAPS", Ext: AVX, Cat: CatMove, Packing: Packed, Latency: 1, Bytes: 4, Operands: 2, ReadsMem: true, VecBits: 256},
	VMOVUPS:      {Name: "VMOVUPS", Ext: AVX, Cat: CatMove, Packing: Packed, Latency: 2, Bytes: 4, Operands: 2, ReadsMem: true, WritesMem: true, VecBits: 256},
	VMOVSS:       {Name: "VMOVSS", Ext: AVX, Cat: CatMove, Packing: Scalar, Latency: 1, Bytes: 4, Operands: 2, ReadsMem: true, VecBits: 32},
	VBROADCASTSS: {Name: "VBROADCASTSS", Ext: AVX, Cat: CatMove, Packing: Packed, Latency: 3, Bytes: 5, Operands: 2, ReadsMem: true, VecBits: 256},
	VADDPS:       {Name: "VADDPS", Ext: AVX, Cat: CatArith, Packing: Packed, Latency: 3, Bytes: 4, Operands: 3, FLOPs: 8, VecBits: 256},
	VADDSS:       {Name: "VADDSS", Ext: AVX, Cat: CatArith, Packing: Scalar, Latency: 3, Bytes: 4, Operands: 3, FLOPs: 1, VecBits: 32},
	VSUBPS:       {Name: "VSUBPS", Ext: AVX, Cat: CatArith, Packing: Packed, Latency: 3, Bytes: 4, Operands: 3, FLOPs: 8, VecBits: 256},
	VMULPS:       {Name: "VMULPS", Ext: AVX, Cat: CatArith, Packing: Packed, Latency: 5, Bytes: 4, Operands: 3, FLOPs: 8, VecBits: 256},
	VMULSS:       {Name: "VMULSS", Ext: AVX, Cat: CatArith, Packing: Scalar, Latency: 5, Bytes: 4, Operands: 3, FLOPs: 1, VecBits: 32},
	VDIVPS:       {Name: "VDIVPS", Ext: AVX, Cat: CatDivide, Packing: Packed, Latency: 29, Bytes: 4, Operands: 3, FLOPs: 8, VecBits: 256},
	VDIVSS:       {Name: "VDIVSS", Ext: AVX, Cat: CatDivide, Packing: Scalar, Latency: 14, Bytes: 4, Operands: 3, FLOPs: 1, VecBits: 32},
	VSQRTPS:      {Name: "VSQRTPS", Ext: AVX, Cat: CatSqrt, Packing: Packed, Latency: 29, Bytes: 4, Operands: 2, FLOPs: 8, VecBits: 256},
	VMINPS:       {Name: "VMINPS", Ext: AVX, Cat: CatArith, Packing: Packed, Latency: 3, Bytes: 4, Operands: 3, FLOPs: 8, VecBits: 256},
	VMAXPS:       {Name: "VMAXPS", Ext: AVX, Cat: CatArith, Packing: Packed, Latency: 3, Bytes: 4, Operands: 3, FLOPs: 8, VecBits: 256},
	VXORPS:       {Name: "VXORPS", Ext: AVX, Cat: CatLogic, Packing: Packed, Latency: 1, Bytes: 4, Operands: 3, VecBits: 256},
	VANDPS:       {Name: "VANDPS", Ext: AVX, Cat: CatLogic, Packing: Packed, Latency: 1, Bytes: 4, Operands: 3, VecBits: 256},
	VUCOMISS:     {Name: "VUCOMISS", Ext: AVX, Cat: CatCompare, Packing: Scalar, Latency: 2, Bytes: 4, Operands: 2, VecBits: 32},
	VCMPPS:       {Name: "VCMPPS", Ext: AVX, Cat: CatCompare, Packing: Packed, Latency: 3, Bytes: 5, Operands: 3, VecBits: 256},
	VSHUFPS:      {Name: "VSHUFPS", Ext: AVX, Cat: CatOther, Packing: Packed, Latency: 1, Bytes: 5, Operands: 3, VecBits: 256},
	VCVTSI2SS:    {Name: "VCVTSI2SS", Ext: AVX, Cat: CatConvert, Packing: Scalar, Latency: 5, Bytes: 4, Operands: 3, VecBits: 32},
	VCVTDQ2PS:    {Name: "VCVTDQ2PS", Ext: AVX, Cat: CatConvert, Packing: Packed, Latency: 3, Bytes: 4, Operands: 2, VecBits: 256},
	VFMADD231PS:  {Name: "VFMADD231PS", Ext: AVX, Cat: CatArith, Packing: Packed, Latency: 5, Bytes: 5, Operands: 3, FLOPs: 16, VecBits: 256},
	VFMADD231SS:  {Name: "VFMADD231SS", Ext: AVX, Cat: CatArith, Packing: Scalar, Latency: 5, Bytes: 5, Operands: 3, FLOPs: 2, VecBits: 32},
	VPADDD:       {Name: "VPADDD", Ext: AVX, Cat: CatArith, Packing: Packed, Latency: 1, Bytes: 4, Operands: 3, VecBits: 256},
	VPMULLD:      {Name: "VPMULLD", Ext: AVX, Cat: CatArith, Packing: Packed, Latency: 5, Bytes: 5, Operands: 3, VecBits: 256},
	VZEROUPPER:   {Name: "VZEROUPPER", Ext: AVX, Cat: CatOther, Packing: NoPacking, Latency: 1, Bytes: 3, Operands: 0},
}

// byName maps canonical mnemonic strings back to opcodes.
var byName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op := Op(1); op < numOps; op++ {
		m[infoTable[op].Name] = op
	}
	return m
}()

// Valid reports whether op refers to a defined instruction.
func (op Op) Valid() bool { return op > opInvalid && op < numOps }

// Info returns the static attributes of op. It panics on an invalid
// opcode: an invalid Op in an instruction stream is a programming error,
// never an expected runtime condition.
func (op Op) Info() Info {
	if !op.Valid() {
		panic(fmt.Sprintf("isa: invalid opcode %d", uint16(op)))
	}
	return infoTable[op]
}

// String returns the canonical mnemonic.
func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("INVALID(%d)", uint16(op))
	}
	return infoTable[op].Name
}

// Bytes returns the encoded length of op in bytes.
func (op Op) Bytes() int { return op.Info().Bytes }

// Latency returns the nominal execution latency of op in cycles.
func (op Op) Latency() int { return op.Info().Latency }

// IsBranch reports whether op redirects control flow.
func (op Op) IsBranch() bool { return op.Info().IsBranch() }

// Parse returns the opcode for a canonical mnemonic string.
func Parse(name string) (Op, error) {
	if op, ok := byName[name]; ok {
		return op, nil
	}
	return opInvalid, fmt.Errorf("isa: unknown mnemonic %q", name)
}

// All returns every defined opcode in table order.
func All() []Op {
	ops := make([]Op, 0, NumOps)
	for op := Op(1); op < numOps; op++ {
		ops = append(ops, op)
	}
	return ops
}

// ByExt returns the opcodes belonging to the given ISA extension, sorted
// by mnemonic for deterministic iteration.
func ByExt(e Ext) []Op {
	var ops []Op
	for op := Op(1); op < numOps; op++ {
		if infoTable[op].Ext == e {
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
	return ops
}
