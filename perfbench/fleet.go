package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/experiment"
	"iotmpc/internal/service"
)

// Fleet tuning: the worker heartbeat paces grants, so it is the cadence
// dispatch waits on; the lease is long enough that no lease expires.
const (
	fleetWorkers   = 2
	fleetHeartbeat = 100 * time.Millisecond
	fleetLease     = 3 * time.Second
	fleetIters     = 16
)

// fleetMatrix is repetition r's mid-size job: 60 cells on fresh seeds.
func fleetMatrix(seed int64, r int) experiment.Matrix {
	return experiment.Matrix{
		NodeCounts: []int{10, 15, 20, 25, 30},
		LossRates:  []float64{0, 0.2, 0.4},
		DestSlacks: []int{0, 1},
		Iterations: fleetIters,
		Seed:       mix(seed, 4, r),
	}
}

// fleet is a coordinator plus fleetWorkers workers over loopback, each
// with one cell worker, all sharing one initially empty cache. It is the
// workload where dispatch — registration, heartbeat-paced grants, row
// upload and shard completion — is on the critical path.
type fleet struct {
	e      *env
	srv    *server
	client *svcClient
	ctp    *spanTransport // the benchmark client's
	wtp    *spanTransport // the workers'
	stop   context.CancelFunc
	wg     sync.WaitGroup
	probes []core.Config

	mu        sync.Mutex
	checks    []pending
	walls     []float64
	upload    map[string]time.Time // job → first row upload start
	done      map[string]time.Time // job → last shard done response
	grant     []float64            // traced: submit → first upload, ms
	terminal  []float64            // traced: last done → terminal event, ms
	tReps     int
	tComputed int
	tHits     int
	lastRows  []byte
}

func setupFleet(e *env, tr *tracer) (instance, error) {
	f := &fleet{e: e, upload: map[string]time.Time{}, done: map[string]time.Time{}}
	cacheDir := filepath.Join(e.dir, "cache")
	err := tr.time("service.start", "setup", 0, func() (err error) {
		f.srv, err = startServer(e, service.Config{CacheDir: cacheDir, Coordinator: true,
			LeaseTTL: fleetLease, LeaseScanEvery: fleetHeartbeat})
		return err
	})
	if err != nil {
		return nil, err
	}
	f.client, f.ctp = newClient(e, f.srv.url)
	f.wtp = &spanTransport{base: &http.Transport{}, prefix: "dispatch", tally: e.tally, hook: f.observe}
	f.ctp.tr.Store(tr)
	f.wtp.tr.Store(tr)
	defer f.ctp.tr.Store(nil)
	defer f.wtp.tr.Store(nil)

	ctx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	for i := 0; i < fleetWorkers; i++ {
		w, err := service.NewWorker(service.WorkerConfig{
			Coordinator:    f.srv.url,
			Name:           fmt.Sprintf("w%d", i),
			CacheDir:       cacheDir,
			Workers:        1,
			HeartbeatEvery: fleetHeartbeat,
			Client:         &http.Client{Transport: f.wtp, Timeout: serviceTimeout},
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			e.tally.op(w.Run(ctx))
		}()
	}
	if err := f.awaitWorkers(); err != nil {
		f.close()
		return nil, err
	}
	// Warm the dispatch path end to end with a small job; its stream is
	// checked with the repetitions'.
	warm := experiment.Matrix{NodeCounts: []int{10, 12}, LossRates: []float64{0, 0.2},
		Iterations: fleetIters, Seed: mix(e.seed, 5)}
	run, err := f.client.runJob(tr, "setup/warm", warm)
	e.tally.op(err)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	f.checks = append(f.checks, pending{warm, run.rows})
	for _, n := range []int{15, 30} {
		cfg, err := officeConfig(n, 0.2, core.S4, e.seed)
		if err != nil {
			f.close()
			return nil, err
		}
		f.probes = append(f.probes, cfg)
	}
	return f, nil
}

// awaitWorkers polls healthz until every worker holds a registration.
func (f *fleet) awaitWorkers() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := f.client.get("/v1/healthz")
		if err != nil {
			return err
		}
		var h struct {
			Workers []json.RawMessage `json:"workers"`
		}
		if err := json.Unmarshal(raw, &h); err != nil {
			return fmt.Errorf("healthz: %w", err)
		}
		if len(h.Workers) == fleetWorkers {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d workers registered after 10s", len(h.Workers), fleetWorkers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// observe is the workers' transport hook: it keeps each job's first row
// upload and last shard completion.
func (f *fleet) observe(route, job string, start, end time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch route {
	case "upload":
		if t, ok := f.upload[job]; !ok || start.Before(t) {
			f.upload[job] = start
		}
	case "done":
		if end.After(f.done[job]) {
			f.done[job] = end
		}
	}
}

func (f *fleet) rep(r int, tr *tracer) (string, []time.Duration, error) {
	f.ctp.tr.Store(tr)
	f.wtp.tr.Store(tr)
	defer f.ctp.tr.Store(nil)
	defer f.wtp.tr.Store(nil)
	m := fleetMatrix(f.e.seed, r)
	start := time.Now()
	run, err := f.client.runJob(tr, fmt.Sprintf("rep%d/job", r), m)
	f.e.tally.op(err)
	if err != nil {
		return "", nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.checks = append(f.checks, pending{m, run.rows})
	f.lastRows = run.rows
	if tr == nil {
		f.walls = append(f.walls, run.latency.Seconds())
	} else {
		id := run.job.ID
		f.grant = append(f.grant, float64(f.upload[id].Sub(start))/float64(time.Millisecond))
		f.terminal = append(f.terminal, float64(run.done.Sub(f.done[id]))/float64(time.Millisecond))
		f.tReps++
		f.tComputed += run.job.Computed
		f.tHits += run.job.CacheHits
	}
	return "", []time.Duration{run.latency}, nil
}

func (f *fleet) details() map[string]float64 {
	verifyStreams(f.e, f.checks)
	f.checks = nil
	return map[string]float64{"big_job_s": median(f.walls)}
}

func (f *fleet) layers(tr *tracer, m metrics) error {
	m["service.big_job_s"] = median(tr.durations("service.job", time.Second))
	m["service.submit.ms"] = median(tr.durations("service.submit", time.Millisecond))
	m["service.queue_wait.ms"] = median(tr.durations("service.queue_wait", time.Millisecond))
	m["service.results.ms"] = median(tr.durations("service.results", time.Millisecond))
	m["service.http_errors"] = tr.counter("service.http_errors") + tr.counter("dispatch.http_errors")
	m["dispatch.grant_wait.ms"] = median(f.grant)
	m["dispatch.done_to_terminal.ms"] = median(f.terminal)
	hb := tr.durations("dispatch.heartbeat", time.Millisecond)
	m["dispatch.heartbeat.ms"] = median(hb)
	m["dispatch.upload.ms"] = median(tr.durations("dispatch.upload", time.Millisecond))
	if f.tReps > 0 {
		// Heartbeats land in the tracer only during traced repetitions.
		m["dispatch.heartbeats"] = float64(len(hb)) / float64(f.tReps)
		m["experiment.cells_computed"] = float64(f.tComputed) / float64(f.tReps)
		m["experiment.cache_hits"] = float64(f.tHits) / float64(f.tReps)
	}
	if err := expandTime(m, fleetMatrix(f.e.seed, 0)); err != nil {
		return err
	}
	rows, err := decodeRows(f.lastRows)
	if err != nil {
		return err
	}
	if err := probeCache(filepath.Join(f.e.dir, "cacheprobe"), rows, m); err != nil {
		return err
	}
	f.close()
	if err := storeMetrics(f.srv.storeDir, m); err != nil {
		return err
	}
	return probeKernels(f.probes, f.e.seed, true, m)
}

// close stops the workers, waits for them, then stops the coordinator;
// safe to call twice.
func (f *fleet) close() {
	if f.stop != nil {
		f.stop()
		f.wg.Wait()
		f.stop = nil
	}
	if err := f.srv.stop(); err != nil {
		f.e.tally.op(fmt.Errorf("stop coordinator: %w", err))
	}
}
