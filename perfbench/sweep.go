package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/experiment"
)

// sweepIterations is the default matrix's Monte-Carlo count: a multiple of
// the 64-lane batch, so every cell runs whole lane groups.
const sweepIterations = 64

// defaultMatrix is `experiments -panel matrix`'s default: 15/25/40 nodes ×
// loss 0/0.2/0.4 × S3/S4, 18 cells.
func defaultMatrix(seed int64) experiment.Matrix {
	return experiment.Matrix{
		NodeCounts: []int{15, 25, 40},
		LossRates:  []float64{0, 0.2, 0.4},
		Iterations: sweepIterations,
		Seed:       seed,
	}
}

// sweep runs the default matrix cold through experiment.Runner: nproc
// workers, 64 lanes, an empty cache directory and a JSONL sink.
type sweep struct {
	e      *env
	matrix experiment.Matrix
	probes []core.Config
	last   experiment.RunSummary
	traced experiment.RunSummary
	rows   []experiment.ScenarioResult
}

func setupSweep(e *env, tr *tracer) (instance, error) {
	s := &sweep{e: e, matrix: defaultMatrix(e.seed)}
	if err := tr.time("experiment.expand", "setup", 0, func() error {
		_, err := s.matrix.Scenarios()
		return err
	}); err != nil {
		return nil, err
	}
	// Warm the process (allocator, lazy tables) on a one-cell matrix of a
	// different seed, so the first timed repetition is not the cold one.
	warm := experiment.Matrix{NodeCounts: []int{15}, Iterations: sweepIterations,
		Protocols: []core.Protocol{core.S4}, Seed: e.seed ^ 0x5eed}
	if _, err := experiment.NewRunner(experiment.WithWorkers(e.workers)).Run(warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, n := range s.matrix.NodeCounts {
		for _, proto := range []core.Protocol{core.S3, core.S4} {
			cfg, err := officeConfig(n, 0.2, proto, e.seed)
			if err != nil {
				return nil, err
			}
			s.probes = append(s.probes, cfg)
		}
	}
	return s, nil
}

func (s *sweep) rep(r int, tr *tracer) (string, []time.Duration, error) {
	dir := filepath.Join(s.e.dir, fmt.Sprintf("cache%d", r))
	defer os.RemoveAll(dir)
	var out bytes.Buffer
	opts := []experiment.Option{
		experiment.WithWorkers(s.e.workers),
		experiment.WithLanes(experiment.DefaultLaneCount),
		experiment.WithCache(dir),
		experiment.WithSinks(&experiment.JSONLSink{W: &out}),
	}
	var pool *spanPool
	sum := &experiment.FuncSink{Finish: func(rs experiment.RunSummary) error {
		if tr != nil {
			s.traced = rs
		} else {
			s.last = rs
		}
		return nil
	}}
	if tr != nil {
		pool = newSpanPool(s.e.workers, tr, fmt.Sprintf("rep%d", r))
		defer pool.close()
		opts = append(opts, experiment.WithExecutor(pool),
			experiment.WithSinks(&experiment.FuncSink{Result: pool.emitted}))
		if err := tr.time("experiment.expand", "", 0, func() error {
			_, err := s.matrix.Scenarios()
			return err
		}); err != nil {
			return "", nil, err
		}
	}
	opts = append(opts, experiment.WithSinks(sum))
	start := time.Now()
	results, err := experiment.NewRunner(opts...).Run(s.matrix)
	wall := time.Since(start)
	s.e.tally.op(err)
	if err != nil {
		return "", nil, err
	}
	s.rows = results
	s.e.tally.check(len(results) == 18, fmt.Sprintf("sweep returned %d cells, want 18", len(results)))
	h := sha256.Sum256(out.Bytes())
	digest := hex.EncodeToString(h[:])
	if want, ok := recordedDigests["sweep"]; ok && s.e.seed == defaultSeed {
		s.e.tally.check(digest == want, fmt.Sprintf("sweep JSONL digest %s, recorded %s", digest, want))
	}
	return digest, []time.Duration{wall}, nil
}

func (s *sweep) layers(tr *tracer, m metrics) error {
	cellMetrics(tr, m)
	m["experiment.expand.ms"] = median(tr.durations("experiment.expand", time.Millisecond))
	m["experiment.cells_computed"] = float64(s.traced.Computed)
	m["experiment.cache_hits"] = float64(s.traced.CacheHits)
	if err := probeCache(filepath.Join(s.e.dir, "cacheprobe"), s.rows, m); err != nil {
		return err
	}
	return probeKernels(s.probes, s.e.seed, true, m)
}

func (s *sweep) details() map[string]float64 {
	return map[string]float64{"cells_computed": float64(s.last.Computed), "cache_hits": float64(s.last.CacheHits)}
}

func (s *sweep) close() {}

// cellMetrics summarizes the spanPool's spans over all traced repetitions.
func cellMetrics(tr *tracer, m metrics) {
	busy := tr.durations("experiment.cell.busy", time.Millisecond)
	wait := tr.durations("experiment.cell.wait", time.Millisecond)
	lag := tr.durations("experiment.emit_lag", time.Millisecond)
	reps := tr.counter("experiment.traced_runs")
	m["experiment.cell.busy_ms.p50"] = percentile(busy, 50)
	m["experiment.cell.busy_ms.p95"] = percentile(busy, 95)
	if reps > 0 {
		m["experiment.cell.busy_ms.sum"] = sum(busy) / reps
	}
	m["experiment.cell.wait_ms.p50"] = percentile(wait, 50)
	m["experiment.cell.wait_ms.p95"] = percentile(wait, 95)
	m["experiment.emit_lag_ms.p50"] = percentile(lag, 50)
	m["experiment.emit_lag_ms.p95"] = percentile(lag, 95)
}

// spanPool is a fixed-width experiment.Executor that records, per cell, a
// wait span (Submit until a worker starts it), a busy span (the cell's
// Run), and — through emitted, as a sink — an emit-lag span from the
// cell's end to its OnResult, which is the Runner's index-order hold-back.
type spanPool struct {
	tr    *tracer
	trace string
	tasks chan pooledTask
	wg    sync.WaitGroup

	mu    sync.Mutex
	ends  map[int]time.Time
	emits map[int]time.Time
}

type pooledTask struct {
	task      experiment.CellTask
	submitted time.Time
}

// poolQueue bounds the submissions a spanPool buffers without blocking;
// Submit must only enqueue, and no matrix here has more cells.
const poolQueue = 1024

func newSpanPool(width int, tr *tracer, trace string) *spanPool {
	p := &spanPool{tr: tr, trace: trace, tasks: make(chan pooledTask, poolQueue),
		ends: map[int]time.Time{}, emits: map[int]time.Time{}}
	tr.count("experiment.traced_runs", 1)
	for i := 0; i < width; i++ {
		p.wg.Add(1)
		go p.work()
	}
	return p
}

func (p *spanPool) work() {
	defer p.wg.Done()
	for t := range p.tasks {
		start := time.Now()
		p.tr.record("experiment.cell.wait", p.trace, 0, t.submitted, start)
		t.task.Run()
		end := time.Now()
		p.tr.record("experiment.cell.busy", p.trace, 0, start, end)
		p.mu.Lock()
		p.ends[t.task.Index] = end
		p.mu.Unlock()
	}
}

// Submit implements experiment.Executor.
func (p *spanPool) Submit(t experiment.CellTask) {
	p.tasks <- pooledTask{task: t, submitted: time.Now()}
}

// emitted is the FuncSink Result hook.
func (p *spanPool) emitted(r experiment.ScenarioResult) error {
	now := time.Now()
	p.mu.Lock()
	p.emits[r.Scenario.Index] = now
	p.mu.Unlock()
	return nil
}

// close stops the workers once the Runner has returned and records the
// emit-lag spans. A cell can be emitted before its worker reads the clock
// after Run; its lag is then zero. Cache hits never ran on the pool.
func (p *spanPool) close() {
	close(p.tasks)
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	for idx, end := range p.ends {
		if emit, ok := p.emits[idx]; ok {
			if emit.Before(end) {
				emit = end
			}
			p.tr.record("experiment.emit_lag", p.trace, 0, end, emit)
		}
	}
}
