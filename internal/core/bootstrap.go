package core

import (
	"fmt"
	"sort"

	"iotmpc/internal/minicast"
	"iotmpc/internal/phy"
	"iotmpc/internal/seckey"
	"iotmpc/internal/sim"
)

// Bootstrap is the outcome of the protocol's bootstrapping phase. The paper
// assumes "every node takes note of which neighbor is reachable at what NTX
// value" during bootstrapping; we realize that as a sequence of MiniCast
// probe rounds over the real channel model:
//
//   - for S3, probing finds the smallest NTX at which all-to-all sharing
//     achieves full coverage reliably (plus a safety margin) — the
//     full-coverage NTX the naive protocol must run at;
//   - for S4, probing measures per-destination delivery reliability at the
//     configured low NTX and fixes the common destination set D: the
//     degree+1+slack nodes reachable from EVERY source most reliably.
//     D must be common across sources because reconstruction interpolates
//     public-point sums, and a sum is only meaningful if it aggregates the
//     shares of every source.
type Bootstrap struct {
	// Channel is the radio backend probes ran on; rounds reuse it.
	Channel phy.Radio
	// NTXFull is the derived full-coverage NTX used by S3.
	NTXFull int
	// Dests is S4's common destination set, most reliable first.
	Dests []int
	// Reliability[i] is the min-over-sources delivery rate of Dests[i]
	// observed at the probing NTX.
	Reliability []float64
	// Diameter is the hop diameter of the connectivity graph (PRR >= 0.5).
	Diameter int

	cfg Config
	// shareDests are the nodes every source seals a share vector for: all
	// nodes for S3, Dests for S4.
	shareDests []int
	// sealers holds the expanded pairwise key of every (source, share
	// destination) pair, indexed src*n+dst; both directions of a pair share
	// one Sealer. It is built once here and only read afterwards, so every
	// trial, lane and trial worker of the bootstrap shares it, and it is
	// freed with the bootstrap.
	sealers []*seckey.Sealer
}

// Probing constants. More probes sharpen the estimates at bootstrap cost;
// these mirror the short commissioning phase a real deployment would run.
const (
	probesPerNTX     = 24
	probesForDests   = 24
	ntxSearchCeiling = 6 // multiple of (diameter+1) before giving up
	minReliability   = 0.85
)

// RunBootstrap executes the bootstrapping phase for the configuration.
func RunBootstrap(cfg Config) (*Bootstrap, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	ch, err := cfg.buildRadio()
	if err != nil {
		return nil, err
	}
	diam, connected, err := phy.Diameter(ch, 0.5)
	if err != nil {
		return nil, err
	}
	if !connected {
		return nil, fmt.Errorf("%w: topology %q disconnected", ErrBootstrap, cfg.Topology.Name)
	}
	b := &Bootstrap{Channel: ch, Diameter: diam, cfg: cfg}

	if err := b.deriveNTXFull(); err != nil {
		return nil, err
	}
	if cfg.Protocol == S4 {
		if err := b.deriveDests(); err != nil {
			return nil, err
		}
	}
	if err := b.expandKeys(); err != nil {
		return nil, err
	}
	return b, nil
}

// expandKeys fixes the share destinations and expands the pairwise key of
// every (source, destination) pair a round seals for: the secure channels
// the paper assumes are "established during the bootstrapping phase".
func (b *Bootstrap) expandKeys() error {
	n := b.Channel.NumNodes()
	b.shareDests = b.Dests
	if b.cfg.Protocol == S3 {
		b.shareDests = make([]int, n)
		for i := range b.shareDests {
			b.shareDests[i] = i
		}
	}
	keys := seckey.NewStore(seckey.MasterFromSeed(b.cfg.MasterSeed))
	b.sealers = make([]*seckey.Sealer, n*n)
	for _, src := range b.cfg.Sources {
		for _, dst := range b.shareDests {
			if dst == src {
				continue
			}
			s := b.sealers[dst*n+src] // the reverse direction, if expanded
			if s == nil {
				key, err := keys.PairKey(src, dst)
				if err != nil {
					return err
				}
				s = seckey.NewSealer(key)
			}
			b.sealers[src*n+dst] = s
		}
	}
	return nil
}

// Config returns the normalized configuration the bootstrap was run for.
func (b *Bootstrap) Config() Config { return b.cfg }

// probeItems is an all-to-all broadcast chain: one item per node.
func probeItems(n int) []minicast.Item {
	items := make([]minicast.Item, n)
	for i := range items {
		items[i] = minicast.Item{Owner: i, Dst: -1}
	}
	return items
}

// deriveNTXFull searches upward from the diameter for the smallest NTX at
// which every probe achieves full all-to-all coverage, then applies the
// naive protocol's conservative sizing: NTXFull = 2×threshold + 2.
//
// The doubling is the point of "naive": S3 must deliver EVERY item to EVERY
// node across entire experiment campaigns (the paper runs 2000 iterations —
// tens of millions of (item, node) deliveries), but the bootstrap threshold
// is estimated from only a dozen probes of the best case. A deployment that
// cannot tolerate tail losses has to over-provision well past the probed
// threshold; doubling is the standard CT-literature margin (Glossy itself is
// typically run at N well above the minimum that floods the testbed). S4's
// entire design is about not needing this margin.
func (b *Bootstrap) deriveNTXFull() error {
	n := b.Channel.NumNodes()
	items := probeItems(n)
	ceiling := ntxSearchCeiling * (b.Diameter + 1)
	// Each probe's result is folded immediately, so one arena serves the
	// whole search, reset between probes.
	var arena sim.Arena
	for ntx := b.Diameter; ntx <= ceiling; ntx++ {
		allFull := true
		for probe := 0; probe < probesPerNTX; probe++ {
			rng := sim.NewRNG(b.cfg.ChannelSeed, uint64(0x0B00+ntx*1000+probe))
			arena.Reset()
			res, err := minicast.RunArena(minicast.Config{
				Channel:      b.Channel,
				Initiator:    b.cfg.Initiator,
				NTX:          ntx,
				Items:        items,
				PayloadBytes: sumPayloadBytes(b.cfg.effVectorLen()),
			}, rng, nil, nil, &arena)
			if err != nil {
				return err
			}
			if res.MeanCoverage() < 1 {
				allFull = false
				break
			}
		}
		if allFull {
			b.NTXFull = 2*ntx + 2
			return nil
		}
	}
	return fmt.Errorf("%w: no full-coverage NTX found below %d", ErrBootstrap, ceiling)
}

// deriveDests measures, at the low sharing NTX, how reliably each node
// receives data originating at each source, and keeps the degree+1+slack
// nodes whose worst-source reliability is highest.
func (b *Bootstrap) deriveDests() error {
	n := b.Channel.NumNodes()
	items := probeItems(n)
	// delivered[src][node] counts probe rounds where node got src's item.
	delivered := make([][]int, n)
	for i := range delivered {
		delivered[i] = make([]int, n)
	}
	var arena sim.Arena
	for probe := 0; probe < probesForDests; probe++ {
		rng := sim.NewRNG(b.cfg.ChannelSeed, uint64(0xDE57+probe))
		arena.Reset()
		res, err := minicast.RunArena(minicast.Config{
			Channel:      b.Channel,
			Initiator:    b.cfg.Initiator,
			NTX:          b.cfg.NTXSharing,
			Items:        items,
			PayloadBytes: sharePayloadBytes(b.cfg.effVectorLen()),
		}, rng, nil, nil, &arena)
		if err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			for node := 0; node < n; node++ {
				if res.Have[node][src] {
					delivered[src][node]++
				}
			}
		}
	}

	type cand struct {
		node int
		rel  float64
	}
	cands := make([]cand, 0, n)
	for node := 0; node < n; node++ {
		worst := 1.0
		for _, src := range b.cfg.Sources {
			rel := float64(delivered[src][node]) / probesForDests
			if src == node {
				rel = 1 // a source trivially "delivers" to itself
			}
			if rel < worst {
				worst = rel
			}
		}
		cands = append(cands, cand{node: node, rel: worst})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rel != cands[j].rel {
			return cands[i].rel > cands[j].rel
		}
		return cands[i].node < cands[j].node
	})

	want := b.cfg.Degree + 1 + b.cfg.DestSlack
	if len(cands) < want || cands[want-1].rel < minReliability {
		got := 0
		for _, c := range cands {
			if c.rel >= minReliability {
				got++
			}
		}
		return fmt.Errorf("%w: need %d destinations with reliability >= %.2f at NTX=%d, have %d",
			ErrBootstrap, want, minReliability, b.cfg.NTXSharing, got)
	}
	b.Dests = make([]int, want)
	b.Reliability = make([]float64, want)
	for i := 0; i < want; i++ {
		b.Dests[i] = cands[i].node
		b.Reliability[i] = cands[i].rel
	}
	return nil
}
