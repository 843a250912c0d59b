package hbbp

// WithPerInstructionReference forces every run onto the CPU's
// per-instruction reference dispatch instead of the block-granularity
// fast path. Results are bit-identical either way; the façade's parity
// tests set it to prove that.
func WithPerInstructionReference() Option {
	return func(c *config) error {
		c.perInstruction = true
		return nil
	}
}
