package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
	"iotmpc/internal/trace"
)

// laneBackend pairs a radio backend with a round configuration sized for its
// topology, so the lane equivalence suite sweeps all three channel models.
type laneBackend struct {
	name string
	cfg  func(Protocol) Config
}

func laneBackends(t *testing.T) []laneBackend {
	t.Helper()
	lt, err := trace.Bundled("testbed10")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := topology.Grid(2, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	return []laneBackend{
		{name: "logdist", cfg: flockConfig},
		{name: "unitdisk", cfg: func(p Protocol) Config {
			cfg := flockConfig(p)
			cfg.Backend = phy.UnitDiskFactory(35, 20)
			return cfg
		}},
		{name: "trace", cfg: func(p Protocol) Config {
			return Config{
				Topology:    grid,
				Backend:     trace.Factory(lt),
				Protocol:    p,
				Sources:     sourcesUpTo(10),
				Degree:      2,
				NTXSharing:  5,
				DestSlack:   1,
				ChannelSeed: 1,
			}
		}},
	}
}

// TestRunRoundLanesMatchesScalar is the tentpole equivalence test: for every
// backend and protocol, a bit-sliced batch must reproduce the scalar rounds
// field for field — outcomes, latencies, and radio ledgers — for any lane
// count, because every lane owns the trial's derived RNG streams.
func TestRunRoundLanesMatchesScalar(t *testing.T) {
	for _, be := range laneBackends(t) {
		for _, proto := range []Protocol{S3, S4} {
			be, proto := be, proto
			t.Run(be.name+"/"+proto.String(), func(t *testing.T) {
				boot := bootFor(t, be.cfg(proto))
				const base, count = 3, 5
				lanes, err := RunRoundLanes(boot, base, count)
				if err != nil {
					t.Fatal(err)
				}
				for l := 0; l < count; l++ {
					want, err := RunRound(boot, base+uint64(l))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(lanes[l], want) {
						t.Errorf("lane %d (trial %d) diverges from scalar round", l, base+uint64(l))
					}
				}
			})
		}
	}
}

// TestRunRoundLanesFullWidth packs phy.MaxLanes trials into one batch on the
// cheap trace testbed and checks every lane against its scalar trial.
func TestRunRoundLanesFullWidth(t *testing.T) {
	be := laneBackends(t)[2] // trace backend: 10 nodes
	boot := bootFor(t, be.cfg(S4))
	lanes, err := RunRoundLanes(boot, 0, phy.MaxLanes)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < phy.MaxLanes; l++ {
		want, err := RunRound(boot, uint64(l))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lanes[l], want) {
			t.Errorf("lane %d diverges from scalar round", l)
		}
	}
}

// TestRunRoundLanesSharedBootstrapConcurrent runs one bootstrap's lane
// rounds from several goroutines at once, as a cell's trial workers do.
// They all seal and open through the bootstrap's one table of expanded
// pairwise keys, so the results must equal a sequential run of the same
// batches (and the race detector must stay quiet).
func TestRunRoundLanesSharedBootstrapConcurrent(t *testing.T) {
	const workers, lanes = 4, 16
	be := laneBackends(t)[2] // trace backend: 10 nodes
	for _, proto := range []Protocol{S3, S4} {
		boot := bootFor(t, be.cfg(proto))
		got := make([][]*RoundResult, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w], errs[w] = RunRoundLanes(boot, uint64(w*lanes), lanes)
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatalf("%v worker %d: %v", proto, w, errs[w])
			}
			want, err := RunRoundLanes(boot, uint64(w*lanes), lanes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[w], want) {
				t.Errorf("%v worker %d: concurrent batch diverges from sequential run", proto, w)
			}
		}
	}
}

// TestRunRoundLanesPartitionInvariant checks the load-bearing determinism
// property: splitting a trial range into different lane groupings never
// changes any trial's result, so the experiment layer may batch however the
// worker count falls out.
func TestRunRoundLanesPartitionInvariant(t *testing.T) {
	be := laneBackends(t)[2]
	boot := bootFor(t, be.cfg(S4))
	whole, err := RunRoundLanes(boot, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	var split []*RoundResult
	for _, part := range []int{5, 3, 4} {
		batch, err := RunRoundLanes(boot, uint64(len(split)), part)
		if err != nil {
			t.Fatal(err)
		}
		split = append(split, batch...)
	}
	if !reflect.DeepEqual(whole, split) {
		t.Error("lane partition changed trial results")
	}
}

// TestRunRoundLanesVerifiable covers the commitment chain: verifiable rounds
// run TWO lane chains (commitments, then shares) and the per-lane
// verification counters must match the scalar rounds.
func TestRunRoundLanesVerifiable(t *testing.T) {
	cfg := flockConfig(S4)
	cfg.Verifiable = true
	boot := bootFor(t, cfg)
	const count = 4
	lanes, err := RunRoundLanes(boot, 0, count)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < count; l++ {
		want, err := RunRound(boot, uint64(l))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lanes[l], want) {
			t.Errorf("verifiable lane %d diverges from scalar round", l)
		}
		if lanes[l].VerifiedShares == 0 {
			t.Errorf("lane %d verified no shares", l)
		}
	}
}

// TestRunRoundLanesWithFailures covers the failure axis: killed destinations
// must fail identically in lane and scalar execution.
func TestRunRoundLanesWithFailures(t *testing.T) {
	cfg := flockConfig(S4)
	cfg.Sources = sourcesUpTo(12) // leave non-source destinations to kill
	cfg.DestSlack = 3
	boot := bootFor(t, cfg)
	failed := make([]bool, 26)
	killed := 0
	for _, d := range boot.Dests {
		if d == cfg.Initiator || contains(cfg.Sources, d) {
			continue
		}
		failed[d] = true
		if killed++; killed == 2 {
			break
		}
	}
	if killed == 0 {
		t.Skip("no killable destination (all are sources); topology-dependent")
	}
	cfg.Failed = failed
	cfg.Sources = removeFailed(cfg.Sources, failed)
	boot, err := RunBootstrap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := RunRoundLanes(boot, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 3; l++ {
		want, err := RunRound(boot, uint64(l))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lanes[l], want) {
			t.Errorf("failure-axis lane %d diverges from scalar round", l)
		}
	}
}

func TestRunRoundLanesErrors(t *testing.T) {
	if _, err := RunRoundLanes(nil, 0, 4); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil bootstrap: error = %v, want ErrBadConfig", err)
	}
	boot := bootFor(t, flockConfig(S4))
	for _, count := range []int{0, -1, phy.MaxLanes + 1} {
		if _, err := RunRoundLanes(boot, 0, count); !errors.Is(err, ErrBadConfig) {
			t.Errorf("count %d: error = %v, want ErrBadConfig", count, err)
		}
	}
}

// TestRunRoundLanesSingleLane checks that the count==1 fast path is exactly
// the scalar round.
func TestRunRoundLanesSingleLane(t *testing.T) {
	boot := bootFor(t, flockConfig(S3))
	lanes, err := RunRoundLanes(boot, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunRound(boot, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(lanes) != 1 || !reflect.DeepEqual(lanes[0], want) {
		t.Error("single-lane batch diverges from scalar round")
	}
}
