package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// The comparator reads two result sets and prints, per metric and
// workload, each side's median and quartiles, the pairs the new side won,
// and a verdict. A result set is a directory holding <workload>.jsonl
// files, one run's result line per line, in the order the runs were made;
// run i of the old set is paired with run i of the new set.

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// verdict rules, after the benchmark's own acceptance rules:
//   - better: every new run beats every old run, or the new side wins at
//     least 9 in 10 pairs (ties count for neither) and the medians differ
//     by more than the old side's quartile spread;
//   - unresolved: the old side's spread, as a share of its median, is
//     wider than the bound, so the bound cannot be checked;
//   - worse: the new median is worse than the old by more than the bound
//     (for a metric without a bound: the mirror image of better);
//   - unchanged: otherwise;
//   - failed, in place of any of these: the new set failed a larger share
//     of its operations than the old, or has a line with failed checks.
const winShare = 0.9

type comparison struct {
	oldQ, newQ  [3]float64
	wins, pairs int
	verdict     string
}

func compare(old, cur []float64, lowerBetter bool, bound *float64) comparison {
	var c comparison
	c.oldQ[0], c.oldQ[1], c.oldQ[2] = quartiles(old)
	c.newQ[0], c.newQ[1], c.newQ[2] = quartiles(cur)
	if len(old) == 0 || len(cur) == 0 {
		c.verdict = "unresolved"
		return c
	}
	// gain > 0 means b reads better than a.
	gain := func(a, b float64) float64 {
		if lowerBetter {
			return a - b
		}
		return b - a
	}
	losses := 0
	c.pairs = min(len(old), len(cur))
	for i := 0; i < c.pairs; i++ {
		switch g := gain(old[i], cur[i]); {
		case g > 0:
			c.wins++
		case g < 0:
			losses++
		}
	}
	oldMed, newMed := c.oldQ[1], c.newQ[1]
	iqr := c.oldQ[2] - c.oldQ[0]
	beyondSpread := math.Abs(newMed-oldMed) > iqr
	dominates := func(a, b []float64) bool { // every b better than every a
		worstB, bestA := sortedCopy(b), sortedCopy(a)
		if lowerBetter {
			return worstB[len(worstB)-1] < bestA[0]
		}
		return worstB[0] > bestA[len(bestA)-1]
	}
	switch {
	case dominates(old, cur),
		float64(c.wins) >= winShare*float64(c.pairs) && beyondSpread && gain(oldMed, newMed) > 0:
		c.verdict = "better"
	case bound == nil && (dominates(cur, old) ||
		float64(losses) >= winShare*float64(c.pairs) && beyondSpread && gain(oldMed, newMed) < 0):
		c.verdict = "worse"
	case bound == nil:
		c.verdict = "unresolved"
	case oldMed == 0 || iqr/math.Abs(oldMed) > *bound:
		c.verdict = "unresolved"
	case -gain(oldMed, newMed)/math.Abs(oldMed) > *bound:
		c.verdict = "worse"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// outcome is a result set's correctness tally for one workload, summed
// over its result lines.
type outcome struct {
	attempted, failed int
	incorrect         int // lines with "correct": false
}

func (o outcome) ratio() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// gate withholds a speed verdict from a new set that failed more of its
// operations than the old one, or has a line whose checks failed: its
// figures are not of working code.
func gate(verdict string, old, cur outcome) string {
	if cur.incorrect > 0 || cur.ratio() > old.ratio() {
		return "failed"
	}
	return verdict
}

// workloadSet is one workload's result lines: metric → values, in run
// order, and the lines' correctness tally.
type workloadSet struct {
	metrics map[string][]float64
	outcome
}

// loadSet reads every <workload>.jsonl of dir.
func loadSet(dir string) (map[string]*workloadSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no <workload>.jsonl result files", dir)
	}
	set := map[string]*workloadSet{}
	for _, path := range files {
		ws, err := readResults(path)
		if err != nil {
			return nil, err
		}
		set[strings.TrimSuffix(filepath.Base(path), ".jsonl")] = ws
	}
	return set, nil
}

func readResults(path string) (*workloadSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ws := &workloadSet{metrics: map[string][]float64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		ws.attempted += r.Attempted
		ws.failed += r.Failed
		if !r.Correct {
			ws.incorrect++
		}
		for name, m := range r.Metrics {
			ws.metrics[name] = append(ws.metrics[name], m.Value)
		}
	}
	return ws, sc.Err()
}

// specPath is the benchmark definition the comparator takes the metrics'
// bounds from, relative to the repository root run.sh runs in.
const specPath = "BENCHMARK.json"

func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare <old-dir> <new-dir>")
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	old, err := loadSet(args[0])
	if err != nil {
		return err
	}
	cur, err := loadSet(args[1])
	if err != nil {
		return err
	}
	return report(w, spec, old, cur)
}

// report prints the comparison table: per workload a failed_ratio row
// (failed over attempted operations on each side), then every metric.
func report(w io.Writer, spec benchSpec, old, cur map[string]*workloadSet) error {
	workloads := make([]string, 0, len(old))
	for wl := range old {
		if _, ok := cur[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\told median [q1, q3]\tnew median [q1, q3]\tpairs won\tbound\tverdict")
	for _, wl := range workloads {
		o, c := old[wl].outcome, cur[wl].outcome
		fmt.Fprintf(tw, "failed_ratio\t%s\t%d/%d\t%d/%d\t-\t-\t%s\n",
			wl, o.failed, o.attempted, c.failed, c.attempted, gate("ok", o, c))
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		for _, wl := range workloads {
			ov, nv := old[wl].metrics[m.Name], cur[wl].metrics[m.Name]
			if len(ov) == 0 && len(nv) == 0 {
				continue
			}
			c := compare(ov, nv, m.Better != "higher", m.Bound)
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%d/%d\t%s\t%s\n",
				m.Name, wl, c.oldQ[1], c.oldQ[0], c.oldQ[2], m.Unit,
				c.newQ[1], c.newQ[0], c.newQ[2], m.Unit, c.wins, c.pairs, bound,
				gate(c.verdict, old[wl].outcome, cur[wl].outcome))
		}
	}
	return tw.Flush()
}
