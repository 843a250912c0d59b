package pmu

import (
	"strings"
	"testing"

	"hbbp/internal/cpu"
)

// TestNewValidatesSkidRanges rejects every empty skid range at New —
// each would otherwise panic at the run's first overflow — and accepts
// the one-value ranges at their edges, which then run without panicking
// under period-1 sampling.
func TestNewValidatesSkidRanges(t *testing.T) {
	p, f := loopProgram(t, 50)
	for _, c := range []struct {
		name   string
		edit   func(*Config)
		reject bool
	}{
		{"skid min above max", func(c *Config) { c.SkidMin, c.SkidMax = 5, 4 }, true},
		{"precise skid min above max", func(c *Config) { c.SkidPreciseMin, c.SkidPreciseMax = 3, 2 }, true},
		{"negative branch skid", func(c *Config) { c.BranchSkidMax = -1 }, true},
		{"single skid", func(c *Config) { c.SkidMin, c.SkidMax = 4, 4 }, false},
		{"single precise skid", func(c *Config) { c.SkidPreciseMin, c.SkidPreciseMax = 2, 2 }, false},
		{"zero branch skid", func(c *Config) { c.BranchSkidMax = 0 }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			c.edit(&cfg)
			h := func(Sample) {}
			pm, err := New(cfg,
				Sampling{Event: InstRetired, Period: 1, Handler: h},
				Sampling{Event: InstRetiredPrecDist, Period: 1, Handler: h},
				Sampling{Event: BrInstRetiredNearTaken, Period: 1, Handler: h},
			)
			if c.reject {
				if err == nil || !strings.Contains(err.Error(), "skid") {
					t.Fatalf("New accepted the config (err %v), want a skid range error", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if _, err := cpu.Run(p, f, cpu.Config{Seed: 1}, pm); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}
