package experiment

import (
	"fmt"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/metrics"
	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
)

// Trial is one Monte-Carlo round reduced to the scalars the folds read.
// RunTrials holds these rather than the rounds' per-node results, so its
// memory stays O(trialBlock), independent of network size.
type Trial struct {
	MeanLatency time.Duration
	MeanRadioOn time.Duration
	// CorrectNodes counts the nodes that obtained the correct aggregate.
	CorrectNodes int
	// Nodes is the network size.
	Nodes int
}

// Chain is a round's chain geometry. It is a function of the bootstrap and
// its sources, not of the trial, so trial 0's values describe every trial.
type Chain struct {
	SharingLen   int
	PayloadBytes int
	NTX          int
}

// trialBlock is how many Monte-Carlo trials are dispatched per fan-out batch:
// large enough to amortize pool overhead, small enough to keep the per-block
// Trial buffer trivial.
const trialBlock = 256

// RunTrials runs trials [0, iterations) of boot and hands each to each in
// trial order. It is the one place a bootstrap's trials execute: every block
// of trialBlock trials splits into core.RunRoundLanes batches of up to lanes
// (1..phy.MaxLanes) consecutive trials, which fan across trialWorkers (<= 0
// selects GOMAXPROCS). Lane l of a batch is RunRound(boot, base+l) and lands
// at its own index, so each sees the same trials in the same order for any
// worker count and lane width.
func RunTrials(boot *core.Bootstrap, iterations, trialWorkers, lanes int, each func(trial int, t Trial)) (Chain, error) {
	if lanes < 1 || lanes > phy.MaxLanes {
		return Chain{}, fmt.Errorf("%w: %d lanes (want 1..%d)", ErrBadSpec, lanes, phy.MaxLanes)
	}
	// Written only by the worker that runs trial 0, read after its pool joins.
	var chain Chain
	block := make([]Trial, trialBlock)
	for base := 0; base < iterations; base += trialBlock {
		count := min(iterations-base, trialBlock)
		err := sim.ParallelFor((count+lanes-1)/lanes, trialWorkers, func(g int) error {
			lo := g * lanes
			results, err := core.RunRoundLanes(boot, uint64(base+lo), min(count-lo, lanes))
			if err != nil {
				return err
			}
			for i, res := range results {
				if base+lo+i == 0 {
					chain = Chain{res.SharingChainLen, res.SharePayloadBytes, res.NTXUsed}
				}
				block[lo+i] = Trial{res.MeanLatency, res.MeanRadioOn, res.CorrectNodes, len(res.NodeOK)}
			}
			return nil
		})
		if err != nil {
			return Chain{}, err
		}
		for i, t := range block[:count] {
			each(base+i, t)
		}
	}
	return chain, nil
}

// TrialFold folds trials the way every S3/S4 report reads them: latency over
// the rounds in which some node obtained the correct aggregate, radio-on over
// all rounds, plus node-level success and outright-failed rounds. Add has
// RunTrials' callback signature.
type TrialFold struct {
	Latency, RadioOn                  metrics.Stream
	OKNodes, TotalNodes, FailedRounds int
}

// Add folds one trial.
func (f *TrialFold) Add(_ int, t Trial) {
	if t.CorrectNodes > 0 {
		f.Latency.AddDuration(t.MeanLatency)
	} else {
		f.FailedRounds++
	}
	f.RadioOn.AddDuration(t.MeanRadioOn)
	f.OKNodes += t.CorrectNodes
	f.TotalNodes += t.Nodes
}

// SuccessRate is the fraction of node-rounds that obtained the correct
// aggregate.
func (f *TrialFold) SuccessRate() float64 {
	return float64(f.OKNodes) / float64(f.TotalNodes)
}

// Summaries summarizes both streams. Latency is the zero Summary when no
// round succeeded; radio-on needs at least one trial.
func (f *TrialFold) Summaries() (latency, radioOn metrics.Summary, err error) {
	if f.Latency.Len() > 0 {
		if latency, err = f.Latency.Summarize(); err != nil {
			return latency, radioOn, fmt.Errorf("latency summary: %w", err)
		}
	}
	if radioOn, err = f.RadioOn.Summarize(); err != nil {
		return latency, radioOn, fmt.Errorf("radio summary: %w", err)
	}
	return latency, radioOn, nil
}
