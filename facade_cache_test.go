package hbbp

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// pollCounter is a context whose Err reports cancellation from poll
// limit+1 on (never, when limit is negative) and counts every poll, so
// a test can cancel a run at a fixed point inside its collection.
type pollCounter struct {
	context.Context
	limit int64
	polls atomic.Int64
}

func (c *pollCounter) Err() error {
	if n := c.polls.Add(1); c.limit >= 0 && n > c.limit {
		return context.Canceled
	}
	return nil
}

// TestExperimentCacheSurvivesCancellation cancels a batched
// RunExperiments call halfway through its collection, then completes
// the same call on the same session: the output must be byte-identical
// to a fresh session's, and the runs the cancelled call completed must
// not be collected again.
func TestExperimentCacheSurvivesCancellation(t *testing.T) {
	batch := []string{"table1", "figure2"}
	session := func(out *bytes.Buffer) *Session {
		s, err := New(WithSeed(2), WithFast(0.1), WithParallelism(1), WithExperimentOutput(out))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s
	}

	var want bytes.Buffer
	counter := &pollCounter{Context: context.Background(), limit: -1}
	fresh, err := session(&want).RunExperiments(counter, batch...)
	if err != nil {
		t.Fatalf("fresh RunExperiments: %v", err)
	}

	var got bytes.Buffer
	s := session(&got)
	half := &pollCounter{Context: context.Background(), limit: counter.polls.Load() / 2}
	rep, err := s.RunExperiments(half, batch...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunExperiments cancelled halfway returned %v, want context.Canceled", err)
	}
	if len(rep.Experiments) != 0 || got.Len() != 0 {
		t.Fatalf("cancellation landed after collection: %d renders, %d bytes written", len(rep.Experiments), got.Len())
	}
	if rep.RunsCollected == 0 {
		t.Fatal("cancelled call completed no run; cancellation landed too early to test reuse")
	}

	again, err := s.RunExperiments(context.Background(), batch...)
	if err != nil {
		t.Fatalf("RunExperiments after cancellation: %v", err)
	}
	if got.String() != want.String() {
		t.Errorf("output after a cancelled call differs from a fresh session:\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if again.RunsCollected+rep.RunsCollected != fresh.RunsCollected {
		t.Errorf("collected %d runs before and %d after cancellation, want %d in all",
			rep.RunsCollected, again.RunsCollected, fresh.RunsCollected)
	}
}

// gateWriter blocks the first Write after arm until release is
// closed, signalling entered when it does; every other Write passes.
type gateWriter struct {
	mu               sync.Mutex
	armed            bool
	entered, release chan struct{}
}

func (g *gateWriter) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	armed := g.armed
	g.armed = false
	g.mu.Unlock()
	if armed {
		close(g.entered)
		<-g.release
	}
	return len(p), nil
}

// TestExperimentReportCountsOwnRuns runs two RunExperiments calls at
// once on one session: call A needs nothing new and is held in its
// render while call B collects a fresh workload. Each report must
// count only the runs its own call collected.
func TestExperimentReportCountsOwnRuns(t *testing.T) {
	out := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	s, err := New(WithSeed(1), WithFast(0.1), WithParallelism(1), WithExperimentOutput(out))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := s.RunExperiments(ctx, "table5"); err != nil {
		t.Fatalf("warming table5: %v", err)
	}

	out.arm()
	type result struct {
		rep *ExperimentReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := s.RunExperiments(ctx, "table5")
		done <- result{rep, err}
	}()
	select {
	case <-out.entered: // A has finished its collection phase and is rendering
	case a := <-done:
		t.Fatalf("call A returned before rendering: %v", a.err)
	}
	b, errB := s.RunExperiments(ctx, "table7")
	close(out.release)
	a := <-done
	if errB != nil {
		t.Fatalf("call B (table7): %v", errB)
	}
	if a.err != nil {
		t.Fatalf("call A (table5): %v", a.err)
	}
	if b.RunsCollected != 1 {
		t.Errorf("call B collected %d runs, want 1 (kernel-prime)", b.RunsCollected)
	}
	if a.rep.RunsCollected != 0 || a.rep.RunsReused == 0 {
		t.Errorf("call A reported %d collected, %d reused; want 0 collected and its own reuses only",
			a.rep.RunsCollected, a.rep.RunsReused)
	}
}
