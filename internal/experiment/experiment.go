// Package experiment is the harness that regenerates the paper's evaluation:
// Fig. 1 panels (a)–(d) — latency and radio-on time for S3 vs S4 on FlockLab
// and D-Cube across source-node counts — plus the in-text headline claims and
// the NTX/coverage characterization. Each sweep runs both protocols over the
// same testbed and seed so comparisons are paired.
package experiment

import (
	"errors"
	"fmt"
	"strings"

	"iotmpc/internal/core"
	"iotmpc/internal/metrics"
	"iotmpc/internal/topology"
)

// Errors returned by the harness.
var (
	// ErrBadSpec is returned for invalid sweep parameters.
	ErrBadSpec = errors.New("experiment: invalid spec")
)

// SweepSpec describes one testbed sweep (one column of Fig. 1).
type SweepSpec struct {
	// Name labels the sweep in tables ("flocklab", "dcube").
	Name string
	// Testbed is the node layout.
	Testbed topology.Topology
	// SourceCounts is the x-axis of the figure.
	SourceCounts []int
	// NTXSharing is S4's low NTX (paper: 6 on FlockLab, 5 on D-Cube).
	NTXSharing int
	// DestSlack is S4's extra-destination count.
	DestSlack int
	// Iterations is the Monte-Carlo repetition count per point (paper: 2000).
	Iterations int
	// Seed roots all randomness.
	Seed int64
}

// FlockLabSweep returns the paper's FlockLab configuration
// (Fig. 1(i), panels a and b).
func FlockLabSweep(iterations int, seed int64) SweepSpec {
	return SweepSpec{
		Name:         "flocklab",
		Testbed:      topology.FlockLab(),
		SourceCounts: []int{3, 6, 10, 24},
		NTXSharing:   6,
		DestSlack:    1,
		Iterations:   iterations,
		Seed:         seed,
	}
}

// DCubeSweep returns the paper's D-Cube configuration
// (Fig. 1(ii), panels c and d).
func DCubeSweep(iterations int, seed int64) SweepSpec {
	return SweepSpec{
		Name:         "dcube",
		Testbed:      topology.DCube(),
		SourceCounts: []int{5, 7, 12, 45},
		NTXSharing:   5,
		DestSlack:    1,
		Iterations:   iterations,
		Seed:         seed,
	}
}

// Point is one (source count, protocol) cell of a sweep.
type Point struct {
	Sources      int             `json:"sources"`
	Protocol     string          `json:"protocol"`
	LatencyMS    metrics.Summary `json:"latencyMs"`
	RadioOnMS    metrics.Summary `json:"radioOnMs"`
	SuccessRate  float64         `json:"successRate"`
	NTXUsed      int             `json:"ntxUsed"`
	SharingChain int             `json:"sharingChain"`
}

// Row pairs the S3 and S4 points for one source count.
type Row struct {
	Sources      int     `json:"sources"`
	S3           Point   `json:"s3"`
	S4           Point   `json:"s4"`
	LatencyRatio float64 `json:"latencyRatio"`
	RadioRatio   float64 `json:"radioRatio"`
}

// SweepResult is a completed sweep.
type SweepResult struct {
	Spec SweepSpec `json:"spec"`
	Rows []Row     `json:"rows"`
}

// SpreadSources picks s well-separated node indices from an n-node testbed,
// mirroring how testbed experiments distribute source roles across the
// facility rather than clustering them.
func SpreadSources(n, s int) ([]int, error) {
	if s <= 0 || s > n {
		return nil, fmt.Errorf("%w: %d sources from %d nodes", ErrBadSpec, s, n)
	}
	out := make([]int, s)
	for i := 0; i < s; i++ {
		out[i] = i * n / s
	}
	return out, nil
}

// RunSweep executes the sweep: for every source count, both protocols run
// Iterations rounds over paired randomness.
func RunSweep(spec SweepSpec) (*SweepResult, error) {
	if spec.Iterations <= 0 {
		return nil, fmt.Errorf("%w: iterations %d", ErrBadSpec, spec.Iterations)
	}
	if len(spec.SourceCounts) == 0 {
		return nil, fmt.Errorf("%w: no source counts", ErrBadSpec)
	}
	result := &SweepResult{Spec: spec}
	n := spec.Testbed.NumNodes()
	for _, s := range spec.SourceCounts {
		sources, err := SpreadSources(n, s)
		if err != nil {
			return nil, err
		}
		row := Row{Sources: s}
		for _, proto := range []core.Protocol{core.S3, core.S4} {
			point, err := runPoint(spec, proto, sources)
			if err != nil {
				return nil, fmt.Errorf("%s s=%d %v: %w", spec.Name, s, proto, err)
			}
			if proto == core.S3 {
				row.S3 = point
			} else {
				row.S4 = point
			}
		}
		if row.LatencyRatio, err = metrics.Ratio(row.S3.LatencyMS.Mean, row.S4.LatencyMS.Mean); err != nil {
			return nil, err
		}
		if row.RadioRatio, err = metrics.Ratio(row.S3.RadioOnMS.Mean, row.S4.RadioOnMS.Mean); err != nil {
			return nil, err
		}
		result.Rows = append(result.Rows, row)
	}
	return result, nil
}

func runPoint(spec SweepSpec, proto core.Protocol, sources []int) (Point, error) {
	cfg := core.Config{
		Topology:    spec.Testbed,
		Protocol:    proto,
		Sources:     sources,
		NTXSharing:  spec.NTXSharing,
		DestSlack:   spec.DestSlack,
		ChannelSeed: spec.Seed,
	}
	boot, err := core.RunBootstrap(cfg)
	if err != nil {
		return Point{}, err
	}
	var fold TrialFold
	chain, err := RunTrials(boot, spec.Iterations, 1, DefaultLaneCount, fold.Add)
	if err != nil {
		return Point{}, err
	}
	if fold.Latency.Len() == 0 {
		return Point{}, fmt.Errorf("latency summary: %w", metrics.ErrNoSamples)
	}
	latSum, radioSum, err := fold.Summaries()
	if err != nil {
		return Point{}, err
	}
	return Point{
		Sources:      len(sources),
		Protocol:     proto.String(),
		LatencyMS:    latSum,
		RadioOnMS:    radioSum,
		SuccessRate:  fold.SuccessRate(),
		NTXUsed:      chain.NTX,
		SharingChain: chain.SharingLen,
	}, nil
}

// Metric selects which panel of a sweep to render.
type Metric int

// Panel metrics.
const (
	// Latency renders panels (a)/(c).
	Latency Metric = iota + 1
	// RadioOn renders panels (b)/(d).
	RadioOn
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Latency:
		return "Latency"
	case RadioOn:
		return "Radio-on-time"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Table renders one panel as the text analogue of the paper's bar chart:
// milliseconds (log-scale magnitudes in the paper) per source count.
func (r *SweepResult) Table(m Metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (ms, mean over %d iterations)\n",
		r.Spec.Name, m, r.Spec.Iterations)
	fmt.Fprintf(&b, "%-8s %14s %14s %8s %10s\n", "sources", "S3", "S4", "ratio", "S4 success")
	for _, row := range r.Rows {
		var s3v, s4v, ratio float64
		switch m {
		case RadioOn:
			s3v, s4v, ratio = row.S3.RadioOnMS.Mean, row.S4.RadioOnMS.Mean, row.RadioRatio
		default:
			s3v, s4v, ratio = row.S3.LatencyMS.Mean, row.S4.LatencyMS.Mean, row.LatencyRatio
		}
		fmt.Fprintf(&b, "%-8d %14.1f %14.1f %7.2fx %9.1f%%\n",
			row.Sources, s3v, s4v, ratio, row.S4.SuccessRate*100)
	}
	return b.String()
}

// CSV renders the sweep as csv with both metrics, one line per
// (sources, protocol).
func (r *SweepResult) CSV() string {
	var b strings.Builder
	b.WriteString("testbed,sources,protocol,latency_ms_mean,latency_ms_ci95,radio_ms_mean,radio_ms_ci95,success_rate,ntx,sharing_chain\n")
	for _, row := range r.Rows {
		for _, p := range []Point{row.S3, row.S4} {
			fmt.Fprintf(&b, "%s,%d,%s,%.3f,%.3f,%.3f,%.3f,%.4f,%d,%d\n",
				r.Spec.Name, p.Sources, p.Protocol,
				p.LatencyMS.Mean, p.LatencyMS.CI95,
				p.RadioOnMS.Mean, p.RadioOnMS.CI95,
				p.SuccessRate, p.NTXUsed, p.SharingChain)
		}
	}
	return b.String()
}

// FullNetworkGains extracts the paper's headline numbers: the S3/S4 ratios at
// the largest source count of the sweep.
func (r *SweepResult) FullNetworkGains() (latency, radio float64, err error) {
	if len(r.Rows) == 0 {
		return 0, 0, fmt.Errorf("%w: empty sweep", ErrBadSpec)
	}
	last := r.Rows[len(r.Rows)-1]
	return last.LatencyRatio, last.RadioRatio, nil
}
