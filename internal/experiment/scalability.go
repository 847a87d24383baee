package experiment

import (
	"fmt"
	"strings"

	"iotmpc/internal/core"
	"iotmpc/internal/metrics"
)

// ScalabilityPoint is one network size in the scalability study: the
// justification for calling S4 "Scalable Shamir Secret Sharing" — its
// advantage over S3 must grow with the network, since S3's chain is O(n²)
// at full-coverage NTX while S4's is O(n·k) at constant low NTX.
type ScalabilityPoint struct {
	Nodes        int     `json:"nodes"`
	S3LatencyMS  float64 `json:"s3LatencyMs"`
	S4LatencyMS  float64 `json:"s4LatencyMs"`
	LatencyRatio float64 `json:"latencyRatio"`
	RadioRatio   float64 `json:"radioRatio"`
}

// ScalabilitySweep runs both protocols on random-geometric deployments of
// increasing size (constant node density, so networks get deeper as they
// grow) with every node contributing a secret and degree n/3.
func ScalabilitySweep(sizes []int, iterations int, seed int64) ([]ScalabilityPoint, error) {
	if iterations <= 0 || len(sizes) == 0 {
		return nil, fmt.Errorf("%w: %d iterations over %d sizes", ErrBadSpec, iterations, len(sizes))
	}
	points := make([]ScalabilityPoint, 0, len(sizes))
	for _, n := range sizes {
		if n < 6 {
			return nil, fmt.Errorf("%w: size %d too small", ErrBadSpec, n)
		}
		testbed, err := officeDeployment(n, seed)
		if err != nil {
			return nil, err
		}
		sources, err := SpreadSources(n, n)
		if err != nil {
			return nil, err
		}

		var lat, radio [2]float64
		for pi, proto := range []core.Protocol{core.S3, core.S4} {
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
				return nil, fmt.Errorf("n=%d %v: %w", n, proto, err)
			}
			var latSum, radioSum float64
			_, err = RunTrials(boot, iterations, 1, DefaultLaneCount, func(_ int, t Trial) {
				latSum += t.MeanLatency.Seconds() * 1e3
				radioSum += t.MeanRadioOn.Seconds() * 1e3
			})
			if err != nil {
				return nil, err
			}
			lat[pi] = latSum / float64(iterations)
			radio[pi] = radioSum / float64(iterations)
		}
		latRatio, err := metrics.Ratio(lat[0], lat[1])
		if err != nil {
			return nil, err
		}
		radioRatio, err := metrics.Ratio(radio[0], radio[1])
		if err != nil {
			return nil, err
		}
		points = append(points, ScalabilityPoint{
			Nodes:        n,
			S3LatencyMS:  lat[0],
			S4LatencyMS:  lat[1],
			LatencyRatio: latRatio,
			RadioRatio:   radioRatio,
		})
	}
	return points, nil
}

// ScalabilityTable renders the study.
func ScalabilityTable(points []ScalabilityPoint) string {
	var b strings.Builder
	b.WriteString("Scalability — S3 vs S4 on growing random-geometric networks\n")
	fmt.Fprintf(&b, "%-7s %14s %14s %10s %10s\n",
		"nodes", "S3 (ms)", "S4 (ms)", "lat ratio", "radio ratio")
	for _, p := range points {
		fmt.Fprintf(&b, "%-7d %14.1f %14.1f %9.2fx %9.2fx\n",
			p.Nodes, p.S3LatencyMS, p.S4LatencyMS, p.LatencyRatio, p.RadioRatio)
	}
	return b.String()
}
