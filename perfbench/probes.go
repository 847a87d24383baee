package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/experiment"
	"iotmpc/internal/field"
	"iotmpc/internal/glossy"
	"iotmpc/internal/hepda"
	"iotmpc/internal/minicast"
	"iotmpc/internal/phy"
	"iotmpc/internal/seckey"
	"iotmpc/internal/shamir"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
)

// Kernel probes call the kernel layers' public functions on a workload's
// own inputs and report time, allocations and bytes per call. They run
// after the timed repetitions of a traced run, never inside them.

// probeBudget is roughly how long one probe keeps calling its function.
const probeBudget = 40 * time.Millisecond

// probeStat is one probe's per-call cost.
type probeStat struct {
	ns, allocs, bytes float64
}

// probe calls f in doubling batches until probeBudget has passed, so the
// clock is read once per batch rather than once per call.
func probe(f func(i int) error) (probeStat, error) {
	if err := f(0); err != nil { // warm buffers and lazy tables first
		return probeStat{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for batch := 1; ; batch *= 2 {
		for j := 0; j < batch; j++ {
			if err := f(n + 1); err != nil {
				return probeStat{}, err
			}
			n++
		}
		if time.Since(start) >= probeBudget {
			break
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return probeStat{
		ns:     float64(el.Nanoseconds()) / float64(n),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}, nil
}

// officeConfig is a sweep cell's protocol input outside the Runner: the
// n-node office deployment the scenario engine synthesizes (same density
// and aspect ratio), all nodes sources, at the given loss rate.
func officeConfig(n int, loss float64, proto core.Protocol, seed int64) (core.Config, error) {
	const officeDensity = 0.009 // as the scenario engine
	area := float64(n) / officeDensity
	w := math.Sqrt(area * 1.6)
	tb, err := topology.RandomGeometric(n, w, area/w, seed)
	if err != nil {
		return core.Config{}, err
	}
	srcs, err := experiment.SpreadSources(n, n)
	if err != nil {
		return core.Config{}, err
	}
	params := phy.DefaultParams()
	params.InterferenceBurstProb = loss
	return core.Config{Topology: tb, PHY: params, Protocol: proto, Sources: srcs, ChannelSeed: seed}, nil
}

// testbedConfig is a Fig. 1 input: a fixed testbed with sources spread as
// the paper's sweeps spread them.
func testbedConfig(tb topology.Topology, sources, ntx int, proto core.Protocol, seed int64) (core.Config, error) {
	srcs, err := experiment.SpreadSources(tb.NumNodes(), sources)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Topology: tb, Protocol: proto, Sources: srcs, NTXSharing: ntx,
		DestSlack: 1, ChannelSeed: seed}, nil
}

// probeKernels bootstraps every input, times the kernels on them, and adds
// the per-layer figures (means over the inputs) to m. The lane kernels are
// probed only for a workload that runs them (lanes); otherwise their
// metrics read 0, as for any layer a workload does not use.
func probeKernels(cfgs []core.Config, seed int64, lanes bool, m metrics) error {
	acc := map[string][]float64{}
	add := func(name string, v float64) { acc[name] = append(acc[name], v) }
	for _, cfg := range cfgs {
		t0 := time.Now()
		boot, err := core.RunBootstrap(cfg)
		if err != nil {
			return fmt.Errorf("bootstrap %s: %w", cfg.Topology.Name, err)
		}
		add("core.run_bootstrap.ms", float64(time.Since(t0))/float64(time.Millisecond))
		if err := probeInput(boot, seed, lanes, add); err != nil {
			return fmt.Errorf("%s %v: %w", cfg.Topology.Name, cfg.Protocol, err)
		}
	}
	for name, vs := range acc {
		m[name] = sum(vs) / float64(len(vs))
	}
	return nil
}

// probeInput times every kernel on one bootstrapped input.
func probeInput(boot *core.Bootstrap, seed int64, lanes bool, add func(string, float64)) error {
	cfg := boot.Config()
	n := cfg.Topology.NumNodes()
	add("probe.nodes", float64(n))
	add("probe.sources", float64(len(cfg.Sources)))

	var last *core.RoundResult
	st, err := probe(func(i int) error {
		res, err := core.RunRound(boot, uint64(i))
		last = res
		return err
	})
	if err != nil {
		return err
	}
	add("core.run_round.us", st.ns/1e3)
	add("core.sharing_chain_len", float64(last.SharingChainLen))
	if lanes {
		st, err = probe(func(i int) error {
			_, err := core.RunRoundLanes(boot, uint64(i*phy.MaxLanes), phy.MaxLanes)
			return err
		})
		if err != nil {
			return err
		}
		add("core.run_round_lanes.us_per_trial", st.ns/1e3/phy.MaxLanes)
		add("core.run_round_lanes.bytes_per_trial", st.bytes/phy.MaxLanes)
	}

	if err := probeCrypto(cfg, seed, add); err != nil {
		return err
	}
	if err := probeRadio(boot.Channel, lanes, add); err != nil {
		return err
	}
	hcfg := hepda.Config{Topology: cfg.Topology, Sources: cfg.Sources, ChannelSeed: seed}
	st, err = probe(func(i int) error {
		_, err := hepda.RunRound(hcfg, uint64(i))
		return err
	})
	if err != nil {
		return fmt.Errorf("hepda: %w", err)
	}
	add("hepda.run_round.ms", st.ns/1e6)
	return nil
}

// probeCrypto times sealing and the Shamir algebra at the input's size and
// degree, one reading per source as the scalar round shares.
func probeCrypto(cfg core.Config, seed int64, add func(string, float64)) error {
	n := cfg.Topology.NumNodes()
	ks := seckey.NewStore(seckey.MasterFromSeed(uint64(seed)))
	key, err := ks.PairKey(1, 2)
	if err != nil {
		return err
	}
	values := []field.Element{field.New(uint64(seed))}
	ctx := seckey.PacketContext{Round: 1, Sender: 1, Receiver: 2}
	st, err := probe(func(i int) error {
		ctx.Slot = uint32(i)
		_, err := seckey.SealVector(key, ctx, values)
		return err
	})
	if err != nil {
		return err
	}
	add("seckey.seal_vector.ns", st.ns)
	add("seckey.seal_vector.allocs", st.allocs)
	sealed, err := seckey.SealVector(key, ctx, values)
	if err != nil {
		return err
	}
	st, err = probe(func(int) error {
		_, err := seckey.OpenVector(key, ctx, len(values), sealed)
		return err
	})
	if err != nil {
		return err
	}
	add("seckey.open_vector.ns", st.ns)
	st, err = probe(func(i int) error {
		// A round builds fresh key stores, so derivation is not cached.
		_, err := seckey.NewStore(seckey.MasterFromSeed(uint64(i))).PairKey(i%n, (i+1)%n)
		return err
	})
	if err != nil {
		return err
	}
	add("seckey.pair_key.ns", st.ns)

	degree := n / 3
	points := shamir.PublicPoints(n)
	rng := rand.New(rand.NewSource(seed))
	var shares []shamir.ShareVector
	st, err = probe(func(int) error {
		var err error
		shares, err = shamir.SplitVec(values, degree, points, rng)
		return err
	})
	if err != nil {
		return err
	}
	add("shamir.split_vec.ns", st.ns)
	st, err = probe(func(int) error {
		_, err := shamir.ReconstructVec(shares[:degree+1], degree)
		return err
	})
	if err != nil {
		return err
	}
	add("shamir.reconstruct_vec.ns", st.ns)
	return nil
}

// probeRadio times the flood and chain kernels, scalar and 64-lane, and
// the reception kernel under them, on the input's channel.
func probeRadio(ch phy.Radio, lanes bool, add func(string, float64)) error {
	n := ch.NumNodes()
	items := make([]minicast.Item, n)
	for i := range items {
		items[i] = minicast.Item{Owner: i, Dst: -1}
	}
	mc := minicast.Config{Channel: ch, NTX: 6, Items: items, PayloadBytes: 21}
	gc := glossy.Config{Channel: ch, NTX: 6, PayloadBytes: 16}
	rng := rand.New(rand.NewSource(1))
	rngs := make([]*rand.Rand, phy.MaxLanes)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i + 1)))
	}
	var arena sim.Arena

	st, err := probe(func(int) error {
		arena.Reset()
		_, err := minicast.RunArena(mc, rng, nil, nil, &arena)
		return err
	})
	if err != nil {
		return err
	}
	add("minicast.run_arena.ns", st.ns)
	if lanes {
		st, err = probe(func(int) error {
			arena.Reset()
			_, err := minicast.RunLanes(mc, phy.MaxLanes, rngs, nil, &arena)
			return err
		})
		if err != nil {
			return err
		}
		add("minicast.run_lanes.ns_per_trial", st.ns/phy.MaxLanes)
	}

	var gres *glossy.Result
	st, err = probe(func(int) error {
		arena.Reset()
		var err error
		gres, err = glossy.RunArena(gc, rng, nil, nil, &arena, gres)
		return err
	})
	if err != nil {
		return err
	}
	add("glossy.run_arena.ns", st.ns)
	if lanes {
		var lres []*glossy.Result
		st, err = probe(func(int) error {
			arena.Reset()
			var err error
			lres, err = glossy.RunLanes(gc, phy.MaxLanes, rngs, nil, &arena, lres)
			return err
		})
		if err != nil {
			return err
		}
		add("glossy.run_lanes.ns_per_trial", st.ns/phy.MaxLanes)
	}

	table := ch.LinkTable()
	txs := []int{1 % n, 2 % n, 5 % n, 9 % n}
	var hits uint64
	st, _ = probe(func(i int) error {
		if table.ReceiveConcurrentFast(i%n, txs, rng) {
			hits++
		}
		return nil
	})
	add("phy.receive_fast.ns", st.ns)
	if lanes {
		txLanes := []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		st, _ = probe(func(i int) error {
			hits += table.ReceiveConcurrentMask(i%n, txs, txLanes, ^uint64(0), rngs)
			return nil
		})
		add("phy.receive_mask.ns", st.ns)
	}
	add("probe.receive_hits", float64(hits)) // keeps the calls observable
	return nil
}

// derivedShares estimates each crypto layer's share of one scalar round
// from probe times × calls per round. They are derived, not measured:
// calls in place may hit warmer or colder caches than the probes did.
func derivedShares(m metrics) map[string]float64 {
	round := m["core.run_round.us"] * 1e3
	if round == 0 {
		return nil
	}
	chain := m["core.sharing_chain_len"]
	// One seal and one open per sharing sub-slot; each of the round's two
	// fresh key stores derives the pair key once per sub-slot.
	seal := (m["seckey.seal_vector.ns"] + m["seckey.open_vector.ns"] + 2*m["seckey.pair_key.ns"]) * chain
	// One split per source, one reconstruction per node.
	alg := m["shamir.split_vec.ns"]*m["probe.sources"] + m["shamir.reconstruct_vec.ns"]*m["probe.nodes"]
	return map[string]float64{
		"seckey.share_of_round": seal / round,
		"shamir.share_of_round": alg / round,
	}
}
