// Command mpcsim runs privacy-preserving aggregation rounds (S3 or S4) on a
// simulated testbed and prints latency / radio-on-time / correctness metrics.
//
// The S3/S4 summary path runs as a single-cell sweep on the experiment
// Runner, which is what gives it `-cache` (content-addressed result reuse),
// `-progress`, and `-out csv|jsonl` for free; `-v` and `-trace` keep the
// bootstrap in hand and call the Runner's trial loop (experiment.RunTrials)
// directly, to expose per-iteration details the Runner's summaries fold away.
//
// Examples:
//
//	mpcsim -testbed flocklab -protocol s4 -iters 50
//	mpcsim -testbed dcube -protocol s3 -sources 12 -seed 7
//	mpcsim -testbed grid -protocol s4 -degree 4 -ntx 4
//	mpcsim -testbed dcube -iters 2000 -workers 0    # fan trials over all cores
//	mpcsim -testbed grid -phy unitdisk:40           # idealized radio backend
//	mpcsim -testbed line -phy trace:testbed10       # replay a recorded 10-node PRR trace
//	mpcsim -testbed dcube -iters 2000 -cache ~/.iotmpc-cache   # repeat runs are instant
//	mpcsim -testbed flocklab -out jsonl | jq .latencyMs.p95
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"iotmpc/internal/core"
	"iotmpc/internal/experiment"
	"iotmpc/internal/hepda"
	"iotmpc/internal/metrics"
	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
	"iotmpc/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mpcsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mpcsim", flag.ContinueOnError)
	var (
		testbedName = fs.String("testbed", "flocklab", "testbed: flocklab, dcube, grid, line")
		protoName   = fs.String("protocol", "s4", "protocol: s3, s4, or he (Paillier baseline)")
		sources     = fs.Int("sources", 0, "number of source nodes (0: all nodes)")
		degree      = fs.Int("degree", 0, "polynomial degree k (0: n/3)")
		ntx         = fs.Int("ntx", 0, "S4 sharing NTX (0: 6)")
		slack       = fs.Int("slack", 1, "extra destinations beyond k+1 (S4 fault tolerance)")
		veclen      = fs.Int("veclen", 0,
			"per-source reading-vector length L (0: scalar; L seals one 8·L-byte vector + one MIC per destination)")
		iters   = fs.Int("iters", 20, "Monte-Carlo iterations")
		workers = fs.Int("workers", 1, "iteration worker goroutines (0: GOMAXPROCS)")
		lanes   = fs.Int("lanes", 0,
			"bit-sliced trial batch width 1..64 (0: default 64; 1: scalar reference path; results are identical for any width)")
		seed = fs.Int64("seed", 1, "randomness seed")
		loss = fs.Float64("loss", experiment.DefaultLossRate,
			"interference burst probability in [0,1)")
		phySpec = fs.String("phy", "logdist",
			"radio backend: logdist, unitdisk[:R[:G]], or trace:<name-or-file>")
		verbose   = fs.Bool("v", false, "print per-iteration results")
		dumpTrace = fs.Bool("trace", false, "print the first iteration's event trace as JSON")
		cacheDir  = fs.String("cache", "",
			"content-addressed result cache directory (a repeated run is served without simulating)")
		progress = fs.Bool("progress", false, "narrate run progress on stderr")
		out      = fs.String("out", "",
			"machine output on stdout instead of the human summary: csv, jsonl")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to `file` at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *iters < 0 {
		return fmt.Errorf("negative -iters %d", *iters)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	testbed, err := pickTestbed(*testbedName)
	if err != nil {
		return err
	}
	n := testbed.NumNodes()
	srcCount := *sources
	if srcCount == 0 {
		srcCount = n
	}
	srcs, err := experiment.SpreadSources(n, srcCount)
	if err != nil {
		return err
	}

	// The HE and -v/-trace paths build their own core/hepda config and need
	// the backend factory in hand; the default Runner path hands the spec
	// string to RunScenarios, which parses (and, for traces, loads) it
	// exactly once itself.
	parseBackend := func() (phy.Factory, error) {
		backend, err := experiment.ParseBackend(*phySpec)
		if err != nil {
			return nil, fmt.Errorf("-phy: %w", err)
		}
		return backend, nil
	}

	lanesSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "lanes" {
			lanesSet = true
		}
	})
	runnerFlags := *cacheDir != "" || *progress || *out != "" || lanesSet
	if strings.EqualFold(*protoName, "he") {
		if runnerFlags {
			return fmt.Errorf("-cache/-progress/-out/-lanes do not apply to the HE baseline")
		}
		backend, err := parseBackend()
		if err != nil {
			return err
		}
		return runHE(testbed, backend, srcs, *veclen, *iters, *seed, *loss, *verbose)
	}
	proto, err := pickProtocol(*protoName)
	if err != nil {
		return err
	}

	if *verbose || *dumpTrace {
		if runnerFlags {
			return fmt.Errorf("-v/-trace use the direct loop; they cannot combine with -cache/-progress/-out/-lanes")
		}
		backend, err := parseBackend()
		if err != nil {
			return err
		}
		return runDirect(testbed, backend, proto, srcs, *degree, *ntx, *slack, *veclen,
			*iters, *workers, *seed, *loss, *verbose, *dumpTrace)
	}

	// The default path: one hand-built scenario cell through the Runner —
	// same engine as cmd/experiments, so caching, progress narration, and
	// machine output formats come from the same sinks.
	sc := experiment.Scenario{
		Testbed:     strings.ToLower(*testbedName),
		Backend:     *phySpec,
		Nodes:       n,
		SourceCount: *sources,
		Degree:      *degree,
		LossRate:    *loss,
		Protocol:    proto,
		NTXSharing:  *ntx,
		DestSlack:   *slack,
		VectorLen:   *veclen,
		Iterations:  *iters,
		Seed:        *seed,
	}
	var sinks []experiment.Sink
	switch *out {
	case "":
	case "csv":
		sinks = append(sinks, &experiment.CSVSink{W: os.Stdout})
	case "jsonl":
		sinks = append(sinks, &experiment.JSONLSink{W: os.Stdout})
	default:
		return fmt.Errorf("unknown -out format %q (want csv, jsonl)", *out)
	}
	if *progress {
		sinks = append(sinks, &experiment.ProgressSink{W: os.Stderr})
	}
	opts := []experiment.Option{
		experiment.WithTrialWorkers(*workers),
		experiment.WithLanes(*lanes),
		experiment.WithSinks(sinks...),
	}
	if *cacheDir != "" {
		opts = append(opts, experiment.WithCache(*cacheDir))
	}
	results, err := experiment.NewRunner(opts...).RunScenarios([]experiment.Scenario{sc})
	if err != nil {
		return err
	}
	if *out != "" {
		return nil // the sink already wrote stdout
	}
	r := results[0]
	cachedNote := ""
	if r.Cached {
		cachedNote = " (served from cache)"
	}
	// Report the settings core actually simulated with, via its own
	// defaulting rules rather than a reimplementation of them.
	norm, err := core.Config{
		Topology:   testbed,
		Protocol:   proto,
		Sources:    srcs,
		Degree:     *degree,
		NTXSharing: *ntx,
		DestSlack:  *slack,
		VectorLen:  *veclen,
	}.Normalized()
	if err != nil {
		return err
	}
	vecNote := ""
	if norm.VectorLen > 0 {
		vecNote = fmt.Sprintf(" veclen=%d", norm.VectorLen)
	}
	fmt.Printf("testbed=%s nodes=%d protocol=%v sources=%d degree=%d ntx(S4)=%d loss=%.2f%s%s\n",
		testbed.Name, n, proto, srcCount, norm.Degree, norm.NTXSharing, *loss, vecNote, cachedNote)
	printSummary(r.LatencyMS, r.RadioOnMS)
	fmt.Printf("success: %.2f%% of node-rounds obtained the correct aggregate (%d/%d rounds failed outright)\n",
		r.SuccessRate*100, r.FailedRounds, *iters)
	return nil
}

func printSummary(lat, radio metrics.Summary) {
	fmt.Printf("latency  (ms): mean=%.1f median=%.1f p95=%.1f ±%.1f\n",
		lat.Mean, lat.Median, lat.P95, lat.CI95)
	fmt.Printf("radio-on (ms): mean=%.1f median=%.1f p95=%.1f ±%.1f\n",
		radio.Mean, radio.Median, radio.P95, radio.CI95)
}

// runDirect is the per-iteration debug path (-v / -trace): it keeps the
// bootstrap in hand so it can print the normalized configuration and the
// first iteration's event trace, and prints every trial as it lands.
func runDirect(testbed topology.Topology, backend phy.Factory, proto core.Protocol,
	srcs []int, degree, ntx, slack, veclen, iters, workers int, seed int64, loss float64,
	verbose, dumpTrace bool) error {
	params := phy.DefaultParams()
	params.InterferenceBurstProb = loss
	cfg := core.Config{
		Topology:    testbed,
		PHY:         params,
		Backend:     backend,
		Protocol:    proto,
		Sources:     srcs,
		Degree:      degree,
		NTXSharing:  ntx,
		DestSlack:   slack,
		VectorLen:   veclen,
		ChannelSeed: seed,
	}
	boot, err := core.RunBootstrap(cfg)
	if err != nil {
		return err
	}
	n := testbed.NumNodes()
	norm := boot.Config()
	vecNote := ""
	if norm.VectorLen > 0 {
		vecNote = fmt.Sprintf(" veclen=%d", norm.VectorLen)
	}
	fmt.Printf("testbed=%s nodes=%d protocol=%v sources=%d degree=%d ntx(S4)=%d ntxFull(S3)=%d%s\n",
		testbed.Name, n, proto, len(srcs), norm.Degree, norm.NTXSharing, boot.NTXFull, vecNote)
	if proto == core.S4 {
		fmt.Printf("destination set (|D|=%d): %v\n", len(boot.Dests), boot.Dests)
	}

	if dumpTrace && iters > 0 {
		rec := &trace.Recorder{}
		if _, err := core.RunRoundTraced(boot, 0, nil, rec); err != nil {
			return err
		}
		raw, err := rec.JSON()
		if err != nil {
			return err
		}
		fmt.Printf("trace (%s):\n%s\n", rec.Summary(), raw)
	}

	// The same trial loop and fold as the Runner path, so -v and the default
	// path report the same statistics for the same trials.
	var fold experiment.TrialFold
	_, err = experiment.RunTrials(boot, iters, workers, experiment.DefaultLaneCount,
		func(trial int, t experiment.Trial) {
			fold.Add(trial, t)
			if verbose {
				fmt.Printf("  iter %3d: latency=%v radio-on=%v correct=%d/%d\n",
					trial, t.MeanLatency, t.MeanRadioOn, t.CorrectNodes, n)
			}
		})
	if err != nil {
		return err
	}
	latSum, radioSum, err := fold.Summaries()
	if err != nil {
		return err
	}
	printSummary(latSum, radioSum)
	fmt.Printf("success: %.2f%% of node-rounds obtained the correct aggregate (%d/%d rounds failed outright)\n",
		100*fold.SuccessRate(), fold.FailedRounds, iters)
	return nil
}

// runHE executes the Paillier baseline instead of an SSS variant. It honors
// -loss the same way the SSS paths do, so HE-vs-S4 comparisons at a given
// interference level are apples to apples.
func runHE(testbed topology.Topology, backend phy.Factory, sources []int, veclen, iters int, seed int64, loss float64, verbose bool) error {
	params := phy.DefaultParams()
	params.InterferenceBurstProb = loss
	cfg := hepda.Config{
		Topology:    testbed,
		PHY:         params,
		Backend:     backend,
		Sources:     sources,
		VectorLen:   veclen,
		ChannelSeed: seed,
	}
	vecNote := ""
	if veclen > 0 {
		vecNote = fmt.Sprintf(" veclen=%d", veclen)
	}
	fmt.Printf("testbed=%s nodes=%d protocol=HE (Paillier 2048-bit model) sources=%d%s\n",
		testbed.Name, testbed.NumNodes(), len(sources), vecNote)
	var lat, radio metrics.Stream
	correct := 0
	for trial := 0; trial < iters; trial++ {
		res, err := hepda.RunRound(cfg, uint64(trial))
		if err != nil {
			return err
		}
		lat.AddDuration(res.MeanLatency)
		radio.AddDuration(res.MeanRadioOn)
		if res.Correct {
			correct++
		}
		if verbose {
			fmt.Printf("  iter %3d: latency=%v radio-on=%v delivery=%.1f%%\n",
				trial, res.MeanLatency, res.MeanRadioOn, res.DeliveryRate*100)
		}
	}
	latSum, err := lat.Summarize()
	if err != nil {
		return err
	}
	radioSum, err := radio.Summarize()
	if err != nil {
		return err
	}
	printSummary(latSum, radioSum)
	fmt.Printf("success: %d/%d rounds decrypted the exact delivered sum\n", correct, iters)
	return nil
}

// pickTestbed resolves the -testbed flag; kept as a thin alias of the
// experiment layer's registry so both CLIs name the same deployments.
func pickTestbed(name string) (topology.Topology, error) {
	return experiment.NamedTestbed(name)
}

func pickProtocol(name string) (core.Protocol, error) {
	switch strings.ToLower(name) {
	case "s3":
		return core.S3, nil
	case "s4":
		return core.S4, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q", name)
	}
}
