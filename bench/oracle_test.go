package main

import (
	"strings"
	"testing"
	"time"
)

// runBroken measures a set-up fixture the way runWorkload's untraced run
// does, after breakOracle has corrupted what its oracle expects.
func runBroken(t *testing.T, workload string, breakOracle func(*fixture)) *result {
	t.Helper()
	fx, err := newFixture(config{workload: workload, seed: 3, scale: 0.05}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	breakOracle(fx)
	ph := newPhase(nil, 300*time.Millisecond)
	fx.measure(ph)
	res := &result{}
	finish(res, fx, ph)
	return res
}

func TestPaperWrongDigestFailsEveryOp(t *testing.T) {
	res := runBroken(t, paperShortblock, func(fx *fixture) {
		for i := range fx.want {
			fx.want[i][0] ^= 0xff
		}
	})
	if res.Attempted == 0 || res.Failed != res.Attempted || res.Correct {
		t.Errorf("attempted %d, failed %d, correct %t; want every op failed", res.Attempted, res.Failed, res.Correct)
	}
	if exitCode(res) == 0 {
		t.Error("a failed determinism check must make the command exit non-zero")
	}
	if len(res.Errors) == 0 || !strings.Contains(res.Errors[0], "capture differs") {
		t.Errorf("errors %q do not name the determinism check", res.Errors)
	}
}

func TestFleetWrongExpectedFailsEveryOp(t *testing.T) {
	res := runBroken(t, fleetIngest, func(fx *fixture) {
		// The offline merge now counts every acked profile twice.
		for i := range fx.fleet.pool {
			fx.fleet.pool[i].prof = fx.fleet.pool[i].prof.Weighted(2)
		}
	})
	if res.Attempted == 0 || res.Failed != res.Attempted || res.Correct {
		t.Errorf("attempted %d, failed %d, correct %t; want every op failed", res.Attempted, res.Failed, res.Correct)
	}
	if exitCode(res) == 0 {
		t.Error("a failed fleet check must make the command exit non-zero")
	}
	if len(res.Errors) == 0 || !strings.Contains(res.Errors[len(res.Errors)-1], "differs from the offline merge") {
		t.Errorf("errors %q do not name the fleet check", res.Errors)
	}
}
