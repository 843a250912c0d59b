package collector

import (
	"bytes"
	"context"
	"testing"
)

// BenchmarkCollectStreaming measures the hot path after the sink
// refactor: samples dispatch straight to the EBS and LBR sinks, no
// perffile serialization and no reparse.
func BenchmarkCollectStreaming(b *testing.B) {
	p, main := mixedProgram(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Collect(p, main, Options{Class: ClassSeconds, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectPerInstruction measures the same collection through
// ReferenceCollect, on the per-instruction reference dispatch — the
// pre-fast-path pipeline — so the win from block-granularity
// retirement with counter-overflow scheduling stays visible in the
// numbers.
func BenchmarkCollectPerInstruction(b *testing.B) {
	p, main := mixedProgram(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReferenceCollect(p, main, Options{Class: ClassSeconds, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectSerializeReparse reproduces the pre-refactor
// pipeline — serialize every sample into an in-memory perffile, then
// re-parse the whole stream to recover the sample sets — so the cost
// the streaming path removed stays visible in the numbers.
func BenchmarkCollectSerializeReparse(b *testing.B) {
	p, main := mixedProgram(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var raw bytes.Buffer
		if _, err := Collect(p, main, Options{Class: ClassSeconds, Seed: 42, RawOut: &raw}); err != nil {
			b.Fatal(err)
		}
		if _, err := ReplayResultContext(context.Background(), bytes.NewReader(raw.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures the streaming replay path alone on a
// pre-serialized collection.
func BenchmarkReplay(b *testing.B) {
	p, main := mixedProgram(b)
	var raw bytes.Buffer
	if _, err := Collect(p, main, Options{Class: ClassSeconds, Seed: 42, RawOut: &raw}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(raw.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplayResultContext(context.Background(), bytes.NewReader(raw.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
