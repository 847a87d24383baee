package experiment

import (
	"fmt"
	"strings"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/hepda"
	"iotmpc/internal/metrics"
	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
)

// BaselineRow is one protocol's cost profile in the three-way comparison the
// paper's introduction frames: HE-based PPDA (computation-intensive) vs
// naive collaborative SSS (communication-intensive) vs the paper's S4.
type BaselineRow struct {
	Protocol string `json:"protocol"`
	// LatencyMS is mean end-to-end latency.
	LatencyMS metrics.Summary `json:"latencyMs"`
	// RadioOnMS is mean per-node radio-on time.
	RadioOnMS metrics.Summary `json:"radioOnMs"`
	// CPUBusyMS is mean per-node modeled crypto/compute time.
	CPUBusyMS float64 `json:"cpuBusyMs"`
	// ChargeMC estimates per-node charge in millicoulombs: radio at the rx
	// current plus CPU at the MCU run current — the battery-lifetime proxy.
	ChargeMC float64 `json:"chargeMc"`
}

// BaselineComparison runs S3, S4 and HE-PPDA on the full FlockLab network
// and returns one row per protocol.
func BaselineComparison(iterations int, seed int64) ([]BaselineRow, error) {
	if iterations <= 0 {
		return nil, fmt.Errorf("%w: iterations %d", ErrBadSpec, iterations)
	}
	testbed := topology.FlockLab()
	n := testbed.NumNodes()
	sources, err := SpreadSources(n, n)
	if err != nil {
		return nil, err
	}
	params := phy.DefaultParams()
	const mcuCurrentMA = 6.3 // nRF52840 CPU running from flash

	rows := make([]BaselineRow, 0, 3)
	for _, proto := range []core.Protocol{core.S3, core.S4} {
		cfg := core.Config{
			Topology:    testbed,
			Protocol:    proto,
			Sources:     sources,
			NTXSharing:  6,
			DestSlack:   1,
			ChannelSeed: seed,
		}
		boot, err := core.RunBootstrap(cfg)
		if err != nil {
			return nil, err
		}
		// SSS compute is microseconds; charge is radio-dominated.
		cpu := boot.Config().CPU.Interpolation(boot.Config().Degree + 1)
		var lat, radio metrics.Stream
		var cpuSum, chargeSum float64
		_, err = RunTrials(boot, iterations, 1, DefaultLaneCount, func(_ int, t Trial) {
			lat.AddDuration(t.MeanLatency)
			radio.AddDuration(t.MeanRadioOn)
			cpuSum += cpu.Seconds() * 1e3
			chargeSum += params.ChargeMicroCoulombs(0, t.MeanRadioOn)/1e3 +
				mcuCurrentMA*cpu.Seconds()
		})
		if err != nil {
			return nil, err
		}
		row, err := summarizeBaseline(proto.String(), &lat, &radio,
			cpuSum/float64(iterations), chargeSum/float64(iterations))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	heCfg := hepda.Config{
		Topology:    testbed,
		Sources:     sources,
		ChannelSeed: seed,
	}
	var lat, radio metrics.Stream
	var cpuSum, chargeSum float64
	for trial := 0; trial < iterations; trial++ {
		res, err := hepda.RunRound(heCfg, uint64(trial))
		if err != nil {
			return nil, err
		}
		lat.AddDuration(res.MeanLatency)
		radio.AddDuration(res.MeanRadioOn)
		var cpuTotal time.Duration
		for _, c := range res.CPUBusy {
			cpuTotal += c
		}
		cpuMean := cpuTotal / time.Duration(n)
		cpuSum += cpuMean.Seconds() * 1e3
		chargeSum += params.ChargeMicroCoulombs(0, res.MeanRadioOn)/1e3 +
			mcuCurrentMA*cpuMean.Seconds()
	}
	row, err := summarizeBaseline("HE", &lat, &radio,
		cpuSum/float64(iterations), chargeSum/float64(iterations))
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}

func summarizeBaseline(name string, lat, radio *metrics.Stream, cpuMS, chargeMC float64) (BaselineRow, error) {
	latSum, err := lat.Summarize()
	if err != nil {
		return BaselineRow{}, err
	}
	radioSum, err := radio.Summarize()
	if err != nil {
		return BaselineRow{}, err
	}
	return BaselineRow{
		Protocol:  name,
		LatencyMS: latSum,
		RadioOnMS: radioSum,
		CPUBusyMS: cpuMS,
		ChargeMC:  chargeMC,
	}, nil
}

// BaselineTable renders the comparison.
func BaselineTable(rows []BaselineRow) string {
	var b strings.Builder
	b.WriteString("FlockLab full network — S3 vs S4 vs HE-PPDA (per-node means)\n")
	fmt.Fprintf(&b, "%-6s %14s %14s %12s %12s\n",
		"proto", "latency (ms)", "radio-on (ms)", "CPU (ms)", "charge (mC)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %14.1f %14.1f %12.1f %12.2f\n",
			r.Protocol, r.LatencyMS.Mean, r.RadioOnMS.Mean, r.CPUBusyMS, r.ChargeMC)
	}
	return b.String()
}
