// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks the program's outputs, and prints one
// JSON result line. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it alternates untraced and traced repetitions and reports the
// per-layer metrics, the tracing overhead, and writes the spans to a file.
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare <old-dir> <new-dir>
//
// Every input is generated from --seed; everything the run writes stays
// under .bench_build/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workDir roots everything a run writes, relative to the checkout.
var workDir = filepath.Join(".bench_build", "perfbench")

// setupReps is how many times a run builds its set-up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// workload is one named input set. setup builds inputs and starts any
// servers; the returned instance runs the fixed work repeatedly.
type workload struct {
	name    string
	minReps int
	setup   func(e *env, tr *tracer) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// rep runs the fixed work once (repetition r) and returns a digest of
	// its outputs and the times of the fixed work's parts, always the same
	// parts in the same order, which leave out any checking done after
	// them; tr is nil for an untraced repetition. Failed operations and
	// checks go to the env's tally.
	rep(r int, tr *tracer) (digest string, parts []time.Duration, err error)
	// layers adds the per-layer metrics this workload measures, from the
	// traced repetitions' tracer and its own probes.
	layers(tr *tracer, m metrics) error
	// details are workload-specific figures printed beside the result.
	details() map[string]float64
	close()
}

// env is what a set-up gets: its seed, a private directory, the worker
// width, and the run's failure tally.
type env struct {
	seed    int64
	dir     string
	workers int
	tally   *tally
}

var workloads = map[string]workload{
	"paper":   {name: "paper", minReps: 3, setup: setupPaper},
	"sweep":   {name: "sweep", minReps: 3, setup: setupSweep},
	"service": {name: "service", minReps: 2, setup: setupService},
	"fleet":   {name: "fleet", minReps: 3, setup: setupFleet},
}

// metrics maps a metric name to its value.
type metrics map[string]float64

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: paper, sweep, service, fleet")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 15, "how long to repeat the fixed work")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	fs.Parse(os.Args[1:])
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up setupReps times, repeats its fixed work for at
// least budget, checks outputs, and assembles the result.
func run(w workload, seed int64, budget time.Duration, traced bool) (result, error) {
	dir := filepath.Join(workDir, fmt.Sprintf("run-%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	tl := &tally{}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	// Set-up, several times. In a traced run the middle set-up is traced,
	// and its excess over the untraced median is the set-up overhead.
	var inst instance
	var setups []float64
	var tracedSetup float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		var str *tracer
		if traced && i == 1 {
			str = tr
		}
		e := &env{seed: seed, dir: filepath.Join(dir, fmt.Sprintf("setup%d", i)),
			workers: runtime.NumCPU(), tally: tl}
		start := time.Now()
		var err error
		inst, err = w.setup(e, str)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(start).Seconds()
		if str != nil {
			tracedSetup = d
		} else {
			setups = append(setups, d)
		}
	}
	defer inst.close()

	// The fixed work, repeated; a traced run alternates untraced and
	// traced repetitions so the two sides see the same machine state.
	var parts, tracedParts [][]float64
	var walls, peaks []float64
	tracedReps := 0
	digests := map[string]bool{}
	minReps := w.minReps
	if traced {
		minReps = max(minReps, 4)
	}
	start := time.Now()
	for r := 0; r < minReps || time.Since(start) < budget; r++ {
		var rtr *tracer
		if traced && r%2 == 1 {
			rtr = tr
		}
		// Every repetition starts from a collected heap, so its GC pacing
		// and peak memory do not depend on what the one before left.
		debug.FreeOSMemory()
		resetPeakRSS()
		digest, ds, err := inst.rep(r, rtr)
		peak := peakRSSMB()
		if err != nil {
			return result{}, fmt.Errorf("%s repetition %d: %w", w.name, r, err)
		}
		if rtr != nil {
			tracedParts = addParts(tracedParts, ds)
			tracedReps++
		} else {
			parts = addParts(parts, ds)
			total := 0.0
			for _, d := range ds {
				total += d.Seconds()
			}
			walls = append(walls, total)
			if len(peaks) < w.minReps {
				peaks = append(peaks, peak)
			}
		}
		if digest != "" {
			digests[digest] = true
		}
	}
	// Same seed, same inputs: every repetition, timed or traced, must
	// produce identical bytes (workloads whose repetitions vary their
	// inputs return no digest and check each output against a reference).
	tl.check(len(digests) <= 1, fmt.Sprintf("%s: %d distinct output digests across repetitions", w.name, len(digests)))
	for d := range digests {
		fmt.Printf("# %s output digest %s\n", w.name, d)
	}

	details := inst.details()
	m := metrics{
		"setup_s":    median(setups),
		"wall_s":     partsWall(parts),
		"max_rss_mb": median(peaks),
	}
	if traced {
		m = metrics{}
		if err := inst.layers(tr, m); err != nil {
			return result{}, fmt.Errorf("%s layers: %w", w.name, err)
		}
		m["trace.overhead.wall_s"] = partsWall(tracedParts) - partsWall(parts)
		m["trace.overhead.setup_s"] = tracedSetup - median(setups)
		tr.mu.Lock()
		m["trace.spans"] = float64(len(tr.spans))
		tr.mu.Unlock()
		fmt.Printf("# tracing overhead %s: wall_s %+.4f s (traced %.4f vs untraced %.4f), setup_s %+.4f s\n",
			w.name, m["trace.overhead.wall_s"], partsWall(tracedParts), partsWall(parts), m["trace.overhead.setup_s"])
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		err := tr.write(path, traceFile{Workload: w.name, Seed: seed, Derived: derivedShares(m),
			Overhead: map[string]float64{"wall_s": m["trace.overhead.wall_s"], "setup_s": m["trace.overhead.setup_s"]}})
		if err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	if details == nil {
		details = map[string]float64{}
	}
	details["wall_min_s"], details["wall_max_s"] = sortedCopy(walls)[0], sortedCopy(walls)[len(walls)-1]
	details["failed_ratio"] = tl.ratio()
	printDetails(w.name, len(walls), tracedReps, details)
	for _, n := range tl.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}

	list := endToEnd
	if traced {
		list = perLayer
	}
	out := make(map[string]metricOut, len(list))
	for _, d := range list {
		out[d.name] = metricOut{Value: m[d.name], Unit: d.unit}
	}
	return result{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   out,
	}, nil
}

// addParts appends one repetition's part times, in s, to the per-part
// lists.
func addParts(parts [][]float64, ds []time.Duration) [][]float64 {
	if parts == nil {
		parts = make([][]float64, len(ds))
	}
	for i, d := range ds {
		parts[i] = append(parts[i], d.Seconds())
	}
	return parts
}

// partsWall is the fixed work's time as the sum, over its parts, of each
// part's median over the repetitions: a burst of host noise during one
// part of one repetition does not move it.
func partsWall(parts [][]float64) float64 {
	total := 0.0
	for _, ts := range parts {
		total += median(ts)
	}
	return total
}

func printDetails(name string, reps, tracedReps int, d map[string]float64) {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := []string{fmt.Sprintf("reps=%d traced_reps=%d", reps, tracedReps)}
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.6g", k, d[k]))
	}
	fmt.Printf("# %s: %s\n", name, strings.Join(parts, " "))
}

// Peak memory is measured per repetition: every repetition starts from a
// collected heap returned to the OS, the kernel's resident high-water mark
// is reset, and the mark is read when the repetition ends. max_rss_mb is
// the median of those peaks, which one unlucky GC cycle cannot move the
// way it moves a whole-process maximum, over the first minReps untraced
// repetitions: every run reaches that count, and a service's memory grows
// with the jobs it has seen, so more repetitions would read higher. Where the mark cannot be reset the
// readings are the process-lifetime peak, and where /proc cannot be read,
// getrusage's.

// resetPeakRSS resets the process's resident high-water mark (VmHWM).
func resetPeakRSS() {
	// The kernel's per-process control file; "5" clears the peak RSS.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the resident high-water mark in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
