package harness

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWithContextCancelledViewLeavesCacheClean proves a cancelled call
// never poisons the shared run cache: a view under a cancelled context
// fails table5 once in training and once in the test40 evaluation,
// after which a live view of the same Runner renders table5 exactly as
// a fresh Runner does, collecting every run once.
func TestWithContextCancelledViewLeavesCacheClean(t *testing.T) {
	var want bytes.Buffer
	cfg := goldenConfig(2)
	cfg.Out = &want
	if err := New(cfg).Run("table5"); err != nil {
		t.Fatalf("fresh table5: %v", err)
	}

	var got bytes.Buffer
	cfg.Out = &got
	r := New(cfg)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	dead := r.WithContext(cancelled)
	if _, err := dead.Table5(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled view before training: Table5 returned %v, want context.Canceled", err)
	}
	live := r.WithContext(context.Background())
	if _, err := live.Model(); err != nil {
		t.Fatalf("live Model after a cancelled training pass: %v", err)
	}
	if _, err := dead.Table5(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled view after training: Table5 returned %v, want context.Canceled", err)
	}
	if err := live.Run("table5"); err != nil {
		t.Fatalf("live table5 after cancelled attempts: %v", err)
	}
	if got.String() != want.String() {
		t.Errorf("table5 after cancelled attempts differs from a fresh runner:\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	for key, n := range r.CollectionCounts() {
		if n != 1 {
			t.Errorf("%s collected %d times, want 1", key, n)
		}
	}
}

// TestWithContextConcurrentPlans runs two overlapping plans at once on
// two views of one Runner: each view must see the structured results
// of a sequential run, and the shared cache must still collect every
// run exactly once. Both views read one cache, so their results are
// deeply equal; against a separate sequential Runner they are compared
// rendered, because scores summed over map iteration may differ in the
// last bit between two fresh collections.
func TestWithContextConcurrentPlans(t *testing.T) {
	type results struct {
		t5 *Table5Result
		f1 *Figure1Result
		f3 *Figure3Result
	}
	render := func(res results) string { return res.t5.Render() + res.f1.Render() + res.f3.Render() }
	read := func(r *Runner) (res results, err error) {
		if res.t5, err = r.Table5(); err != nil {
			return res, err
		}
		if res.f1, err = r.Figure1(); err != nil {
			return res, err
		}
		res.f3, err = r.Figure3()
		return res, err
	}
	want, err := read(New(goldenConfig(1)))
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}

	r := New(goldenConfig(2))
	plans := [][]string{{"table5", "figure1"}, {"figure3", "table5"}}
	got := make([]results, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := r.WithContext(context.Background())
			if _, errs[i] = v.RunPlan(plan...); errs[i] == nil {
				got[i], errs[i] = read(v)
			}
		}()
	}
	wg.Wait()
	for i := range plans {
		if errs[i] != nil {
			t.Fatalf("plan %v: %v", plans[i], errs[i])
		}
		if render(got[i]) != render(want) {
			t.Errorf("plan %v: results differ from a sequential run:\ngot:\n%s\nwant:\n%s", plans[i], render(got[i]), render(want))
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Error("two views of one Runner read different structured results")
	}
	counts := r.CollectionCounts()
	if len(counts) == 0 {
		t.Fatal("no collections recorded")
	}
	for key, n := range counts {
		if n != 1 {
			t.Errorf("%s collected %d times, want 1", key, n)
		}
	}
}

// TestRunBudgetBoundsRunsInFlight starts many runs at once on several
// views of one Runner with Parallelism 3: at no point may more than
// three hold the budget, whichever view they run on.
func TestRunBudgetBoundsRunsInFlight(t *testing.T) {
	const budget, runs = 3, 48
	r := New(Config{Parallelism: budget})
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for i := range runs {
		v := r
		if i%2 == 1 {
			v = r.WithContext(context.Background())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := v.run(func() error {
				n := inFlight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				return nil
			})
			if err != nil {
				t.Errorf("run: %v", err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > budget || p == 0 {
		t.Errorf("peak runs in flight = %d, want 1..%d", p, budget)
	}
}

// TestRunBudgetCancelledWaiterGivesUp fills the budget, then asks for
// a run on a view that is cancelled before and one cancelled while it
// waits: both return context.Canceled without running their work, and
// the budget is whole again once the holders finish.
func TestRunBudgetCancelledWaiterGivesUp(t *testing.T) {
	const budget = 2
	r := New(Config{Parallelism: budget})
	release := make(chan struct{})
	held := make(chan struct{}, budget)
	var holders sync.WaitGroup
	for range budget {
		holders.Add(1)
		go func() {
			defer holders.Done()
			_ = r.run(func() error {
				held <- struct{}{}
				<-release
				return nil
			})
		}()
	}
	for range budget {
		<-held
	}

	ran := func() error { t.Error("a cancelled view ran its work"); return nil }
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.WithContext(cancelled).run(ran); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled view returned %v, want context.Canceled", err)
	}

	waiting, cancelWaiting := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.WithContext(waiting).run(ran) }()
	time.Sleep(10 * time.Millisecond)
	cancelWaiting()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("view cancelled while waiting returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("view cancelled while waiting for the budget never returned")
	}

	close(release)
	holders.Wait()
	if err := r.run(func() error { return nil }); err != nil {
		t.Errorf("run after the holders finished: %v", err)
	}
}
