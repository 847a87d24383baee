package experiment

import (
	"errors"
	"reflect"
	"testing"

	"iotmpc/internal/core"
	"iotmpc/internal/topology"
)

// TestRunTrialsOrderAndInvariance: every worker count and lane width hands
// the callback the same trials in trial order, across a trialBlock boundary,
// with the same chain geometry.
func TestRunTrialsOrderAndInvariance(t *testing.T) {
	grid, err := topology.Grid(3, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := core.RunBootstrap(core.Config{
		Topology:    grid,
		Protocol:    core.S4,
		Sources:     []int{0, 2, 4, 6, 8},
		ChannelSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const iterations = trialBlock + 9
	collect := func(workers, lanes int) ([]Trial, Chain) {
		var got []Trial
		chain, err := RunTrials(boot, iterations, workers, lanes, func(trial int, tr Trial) {
			if trial != len(got) {
				t.Fatalf("workers=%d lanes=%d: trial %d delivered at position %d", workers, lanes, trial, len(got))
			}
			got = append(got, tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, chain
	}
	want, wantChain := collect(1, 1)
	if len(want) != iterations || wantChain.SharingLen == 0 || wantChain.NTX == 0 {
		t.Fatalf("reference run: %d trials, chain %+v", len(want), wantChain)
	}
	for _, c := range []struct{ workers, lanes int }{{1, 64}, {2, 7}, {3, 64}} {
		got, chain := collect(c.workers, c.lanes)
		if !reflect.DeepEqual(got, want) || chain != wantChain {
			t.Errorf("workers=%d lanes=%d diverged from the width-1 sequential run", c.workers, c.lanes)
		}
	}
	for _, lanes := range []int{0, 65} {
		if _, err := RunTrials(boot, 1, 1, lanes, func(int, Trial) {}); !errors.Is(err, ErrBadSpec) {
			t.Errorf("lanes=%d: err %v, want ErrBadSpec", lanes, err)
		}
	}
}
