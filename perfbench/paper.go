package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/experiment"
	"iotmpc/internal/topology"
)

// paperIterations is the Monte-Carlo count of every paper panel, and
// paperSeeds how many derived seeds a repetition runs the panel set for.
// How much work a panel does depends on its seed's channel realization
// (the NTX a bootstrap settles on sets every chain's length), so several
// short passes over different seeds keep one seed's luck from setting the
// run's figure. For the same reason the probe inputs set-up bootstraps
// are drawn over paperProbeSeeds channel seeds: one seed's bootstrap can
// cost twice another's.
const (
	paperIterations = 4
	paperSeeds      = 2
	paperProbeSeeds = 8
)

// paperSizes and paperNTXs are the scalability and coverage axes of
// `experiments -panel all`.
var (
	paperSizes = []int{15, 25, 40, 60}
	paperNTXs  = []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16}
)

// paper runs the `experiments -panel all` panel set in-process: the Fig. 1
// sweeps on FlockLab and D-Cube, the HE baseline, scalability and coverage.
// They run single-threaded on the scalar path.
type paper struct {
	e        *env
	seeds    []int64
	testbeds []topology.Topology
	probes   []core.Config
}

func setupPaper(e *env, tr *tracer) (instance, error) {
	p := &paper{e: e, testbeds: []topology.Topology{topology.FlockLab(), topology.DCube()}}
	for k := 0; k < paperSeeds; k++ {
		p.seeds = append(p.seeds, mix(e.seed, 10, k))
	}
	// Probe inputs: each testbed at its largest source count, both
	// protocols, on each probe channel seed, bootstrapped once here so a
	// broken input fails set-up.
	for k := 0; k < paperProbeSeeds; k++ {
		seed := mix(e.seed, 11, k)
		for _, spec := range []experiment.SweepSpec{
			experiment.FlockLabSweep(paperIterations, seed),
			experiment.DCubeSweep(paperIterations, seed),
		} {
			for _, proto := range []core.Protocol{core.S3, core.S4} {
				cfg, err := testbedConfig(spec.Testbed, spec.SourceCounts[len(spec.SourceCounts)-1],
					spec.NTXSharing, proto, seed)
				if err != nil {
					return nil, err
				}
				err = tr.time("core.run_bootstrap", "setup", 0, func() error {
					_, err := core.RunBootstrap(cfg)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("bootstrap %s %v seed %d: %w", spec.Name, proto, seed, err)
				}
				p.probes = append(p.probes, cfg)
			}
		}
	}
	return p, nil
}

// rep's parts are the panel calls, each timed on its own.
func (p *paper) rep(r int, tr *tracer) (string, []time.Duration, error) {
	tr.count("paper.traced_reps", 1)
	var out bytes.Buffer
	var parts []time.Duration
	for _, seed := range p.seeds {
		if err := p.panels(&out, &parts, seed, fmt.Sprintf("rep%d/seed%d", r, seed), tr); err != nil {
			return "", nil, err
		}
	}
	sum := sha256.Sum256(out.Bytes())
	digest := hex.EncodeToString(sum[:])
	if want, ok := recordedDigests["paper"]; ok && p.e.seed == defaultSeed {
		p.e.tally.check(digest == want, fmt.Sprintf("paper output digest %s, recorded %s", digest, want))
	}
	return digest, parts, nil
}

// panels runs the panel set once for seed, writing what the CLI prints
// and appending each panel call's time to parts.
func (p *paper) panels(out *bytes.Buffer, parts *[]time.Duration, seed int64, trace string, tr *tracer) error {
	panel := func(name string, f func() error) error {
		start := time.Now()
		err := tr.time("experiment.panel."+name, trace, 0, f)
		*parts = append(*parts, time.Since(start))
		p.e.tally.op(err)
		return err
	}
	var flock, dcube *experiment.SweepResult
	if err := panel("fig1_flocklab", func() (err error) {
		flock, err = experiment.RunSweep(experiment.FlockLabSweep(paperIterations, seed))
		return err
	}); err != nil {
		return err
	}
	if err := panel("fig1_dcube", func() (err error) {
		dcube, err = experiment.RunSweep(experiment.DCubeSweep(paperIterations, seed))
		return err
	}); err != nil {
		return err
	}
	for _, res := range []*experiment.SweepResult{flock, dcube} {
		fmt.Fprintf(out, "%s\n%s\n%s", res.Table(experiment.Latency), res.Table(experiment.RadioOn), res.CSV())
		lat, radio, err := res.FullNetworkGains()
		p.e.tally.op(err)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "gains %.6f %.6f\n", lat, radio)
	}
	if err := panel("baseline", func() error {
		rows, err := experiment.BaselineComparison(paperIterations, seed)
		out.WriteString(experiment.BaselineTable(rows))
		return err
	}); err != nil {
		return err
	}
	if err := panel("scalability", func() error {
		pts, err := experiment.ScalabilitySweep(paperSizes, paperIterations, seed)
		out.WriteString(experiment.ScalabilityTable(pts))
		return err
	}); err != nil {
		return err
	}
	return panel("coverage", func() error {
		for _, tb := range p.testbeds {
			pts, err := experiment.CoverageCurve(tb, paperNTXs, paperIterations, seed)
			if err != nil {
				return err
			}
			out.WriteString(experiment.CoverageTable(tb.Name, pts))
		}
		return nil
	})
}

func (p *paper) layers(tr *tracer, m metrics) error {
	// Per repetition: the panel's time summed over the repetition's seeds.
	for _, name := range []string{"fig1_flocklab", "fig1_dcube", "baseline", "scalability", "coverage"} {
		m["experiment.panel."+name+".ms"] = sum(tr.durations("experiment.panel."+name, time.Millisecond)) /
			tr.counter("paper.traced_reps")
	}
	return probeKernels(p.probes, p.e.seed, false, m)
}

func (p *paper) details() map[string]float64 { return nil }

func (p *paper) close() {}
