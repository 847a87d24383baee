package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/experiment"
	"iotmpc/internal/service"
	"iotmpc/internal/store"
)

// Service workload sizes. The big job must outlast the small-job loop, so
// the tail of the small jobs is the wait behind a big-job cell.
const (
	smallJobs      = 100 // per repetition; two make the 200 p95 needs
	smallIters     = 16
	bigIters       = 16
	cheapIters     = 2
	serviceTimeout = 2 * time.Minute
)

// bigMatrix is the large job of repetition r: 360 short cells (12-20
// nodes at 16 iterations), fresh seeds per repetition so every cell is
// computed. Short cells keep a small job's wait for a free pool worker
// short; many of them make the job outlast the small-job loop.
func bigMatrix(seed int64, r int) experiment.Matrix {
	return experiment.Matrix{
		NodeCounts:  []int{12, 14, 16, 18, 20},
		LossRates:   []float64{0, 0.1, 0.2, 0.3},
		DestSlacks:  []int{0, 1, 2},
		NTXSharings: []int{5, 6, 7},
		Iterations:  bigIters,
		Seed:        mix(seed, 1, r),
	}
}

// smallMatrix is the i-th 1-cell job of repetition r.
func smallMatrix(seed int64, r, i int) experiment.Matrix {
	return experiment.Matrix{
		NodeCounts: []int{10},
		LossRates:  []float64{0.2},
		Protocols:  []core.Protocol{core.S4},
		Iterations: smallIters,
		Seed:       mix(seed, 2, r, i),
	}
}

// cheapMatrix is the many-cheap-cell matrix set-up computes and every
// repetition resubmits: 96 cells served from the cache.
func cheapMatrix(seed int64) experiment.Matrix {
	return experiment.Matrix{
		NodeCounts:   []int{8, 10, 12},
		LossRates:    []float64{0, 0.1, 0.2, 0.3},
		DestSlacks:   []int{0, 1},
		FailureRates: []float64{0, 0.1},
		Iterations:   cheapIters,
		Seed:         mix(seed, 3),
	}
}

// server is an in-process sweepd on a loopback listener.
type server struct {
	storeDir string
	st       *store.Store
	svc      *service.Server
	hs       *http.Server
	url      string
	served   chan error
}

func startServer(e *env, cfg service.Config) (*server, error) {
	s := &server{storeDir: filepath.Join(e.dir, "store")}
	var err error
	if s.st, err = store.Open(s.storeDir); err != nil {
		return nil, err
	}
	cfg.Store = s.st
	if s.svc, err = service.New(cfg); err != nil {
		s.st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		s.st.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.svc.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.svc.Start()
	return s, nil
}

// stop shuts the HTTP server, drains the service and closes the store; it
// is safe to call twice.
func (s *server) stop() error {
	if s.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.svc.Close()
	err = errors.Join(err, s.st.Close())
	s.hs = nil
	return err
}

// newClient builds the benchmark's client: at most workers connections.
func newClient(e *env, base string) (*svcClient, *spanTransport) {
	tp := &spanTransport{
		base:   &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers},
		prefix: "service",
		tally:  e.tally,
	}
	return &svcClient{base: base, hc: &http.Client{Transport: tp, Timeout: serviceTimeout}}, tp
}

// pending is a job stream whose check against a local Runner run waits
// until the timed repetitions are over.
type pending struct {
	matrix experiment.Matrix
	rows   []byte
}

// svcLoad is the in-process sweepd workload: phase 1 runs one big job
// while a closed-loop client runs small 1-cell jobs, each until its last
// result row is read; phase 2 resubmits the cheap matrix set-up computed.
type svcLoad struct {
	e         *env
	srv       *server
	cacheDir  string
	client    *svcClient
	tp        *spanTransport
	cheap     experiment.Matrix
	cheapRows []byte
	probes    []core.Config

	mu     sync.Mutex
	checks []pending
	plain  jobStats // untraced repetitions only
	// Traced repetitions' cell counts from the job records, summed.
	tReps, tComputed, tHits int
}

// jobStats are the client's figures over repetitions.
type jobStats struct {
	small  []float64 // small-job latencies, ms
	big    []float64 // big-job times, s
	resub  []float64 // resubmit times, s
	during []float64 // small jobs finished while the big job ran
}

func setupService(e *env, tr *tracer) (instance, error) {
	s := &svcLoad{e: e, cacheDir: filepath.Join(e.dir, "cache"), cheap: cheapMatrix(e.seed)}
	var err error
	err = tr.time("service.start", "setup", 0, func() (err error) {
		s.srv, err = startServer(e, service.Config{CacheDir: s.cacheDir, Workers: e.workers})
		return err
	})
	if err != nil {
		return nil, err
	}
	s.client, s.tp = newClient(e, s.srv.url)
	s.tp.tr.Store(tr)
	defer s.tp.tr.Store(nil)
	// Warm the cache with the cheap matrix, and check its stream.
	run, err := s.client.runJob(tr, "setup/cheap", s.cheap)
	e.tally.op(err)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("cheap matrix: %w", err)
	}
	if s.cheapRows, err = localJSONL(s.cheap, e.workers); err != nil {
		s.close()
		return nil, err
	}
	e.tally.check(bytes.Equal(run.rows, s.cheapRows), "cheap matrix stream differs from a local Runner run")
	for _, n := range []int{10, 18} {
		cfg, err := officeConfig(n, 0.2, core.S4, e.seed)
		if err != nil {
			s.close()
			return nil, err
		}
		s.probes = append(s.probes, cfg)
	}
	return s, nil
}

// rep's parts are what the service tier drives while the big job only
// loads it: each small job of the closed loop, submit to last row, then
// the resubmit.
func (s *svcLoad) rep(r int, tr *tracer) (string, []time.Duration, error) {
	s.tp.tr.Store(tr)
	defer s.tp.tr.Store(nil)
	big := bigMatrix(s.e.seed, r)
	type bigOut struct {
		run jobRun
		err error
	}
	bigc := make(chan bigOut, 1)
	go func() {
		run, err := s.client.runJob(tr, fmt.Sprintf("rep%d/big", r), big)
		bigc <- bigOut{run, err}
	}()
	var lat []float64
	var parts []time.Duration
	var ends []time.Time
	var smallErr error
	for i := 0; i < smallJobs; i++ {
		m := smallMatrix(s.e.seed, r, i)
		run, err := s.client.runJob(tr, fmt.Sprintf("rep%d/small%d", r, i), m)
		s.e.tally.op(err)
		if err != nil {
			smallErr = err
			break
		}
		lat = append(lat, float64(run.latency)/float64(time.Millisecond))
		parts = append(parts, run.latency)
		ends = append(ends, run.finished)
		s.queueCheck(m, run.rows)
	}
	b := <-bigc
	s.e.tally.op(b.err)
	if err := errors.Join(smallErr, b.err); err != nil {
		return "", nil, err
	}
	s.queueCheck(big, b.run.rows)
	during := 0
	for _, t := range ends {
		if t.Before(b.run.done) {
			during++
		}
	}

	res, err := s.client.runJob(tr, fmt.Sprintf("rep%d/resubmit", r), s.cheap)
	s.e.tally.op(err)
	if err != nil {
		return "", nil, err
	}
	s.e.tally.check(bytes.Equal(res.rows, s.cheapRows), "resubmitted cheap matrix stream differs from a local Runner run")
	s.e.tally.check(res.job.Computed == 0, fmt.Sprintf("resubmit computed %d cells, want 0", res.job.Computed))

	s.mu.Lock()
	defer s.mu.Unlock()
	if tr == nil {
		s.plain.small = append(s.plain.small, lat...)
		s.plain.big = append(s.plain.big, b.run.latency.Seconds())
		s.plain.resub = append(s.plain.resub, res.latency.Seconds())
		s.plain.during = append(s.plain.during, float64(during))
	} else {
		for _, j := range []store.Job{b.run.job, res.job} {
			s.tComputed += j.Computed
			s.tHits += j.CacheHits
		}
		s.tReps++
	}
	return "", append(parts, res.latency), nil
}

func (s *svcLoad) queueCheck(m experiment.Matrix, rows []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checks = append(s.checks, pending{m, rows})
}

// verifyStreams checks every job stream of the repetitions against a local Runner
// run of the same matrix.
func verifyStreams(e *env, checks []pending) {
	for _, c := range checks {
		want, err := localJSONL(c.matrix, e.workers)
		e.tally.op(err)
		if err == nil {
			e.tally.check(bytes.Equal(c.rows, want),
				fmt.Sprintf("job stream of matrix seed %d differs from a local Runner run", c.matrix.Seed))
		}
	}
}

func (s *svcLoad) details() map[string]float64 {
	verifyStreams(s.e, s.checks)
	s.checks = nil
	return s.plain.figures()
}

// figures are the service's user-facing figures: small-job latency at the
// median and at the highest percentile with 10 samples beyond it.
func (j jobStats) figures() map[string]float64 {
	return map[string]float64{
		"job_p50_ms":            percentile(j.small, 50),
		"job_p95_ms":            percentile(j.small, tailPercentile(len(j.small))),
		"job_tail_pct":          tailPercentile(len(j.small)),
		"job_samples":           float64(len(j.small)),
		"big_job_s":             median(j.big),
		"resubmit_s":            median(j.resub),
		"small_jobs_during_big": median(j.during),
	}
}

func (s *svcLoad) layers(tr *tracer, m metrics) error {
	f := s.plain.figures()
	for _, k := range []string{"job_p50_ms", "job_p95_ms", "job_samples", "big_job_s", "resubmit_s", "small_jobs_during_big"} {
		m["service."+k] = f[k]
	}
	m["service.submit.ms"] = median(tr.durations("service.submit", time.Millisecond))
	m["service.queue_wait.ms"] = median(tr.durations("service.queue_wait", time.Millisecond))
	m["service.results.ms"] = median(tr.durations("service.results", time.Millisecond))
	m["service.http_errors"] = tr.counter("service.http_errors")
	if s.tReps > 0 {
		m["experiment.cells_computed"] = float64(s.tComputed) / float64(s.tReps)
		m["experiment.cache_hits"] = float64(s.tHits) / float64(s.tReps)
	}
	if err := expandTime(m, bigMatrix(s.e.seed, 0)); err != nil {
		return err
	}
	rows, err := decodeRows(s.cheapRows)
	if err != nil {
		return err
	}
	if err := probeCache(filepath.Join(s.e.dir, "cacheprobe"), rows, m); err != nil {
		return err
	}
	if err := s.srv.stop(); err != nil {
		return err
	}
	if err := storeMetrics(s.srv.storeDir, m); err != nil {
		return err
	}
	return probeKernels(s.probes, s.e.seed, true, m)
}

func (s *svcLoad) close() {
	if err := s.srv.stop(); err != nil {
		s.e.tally.op(fmt.Errorf("stop service: %w", err))
	}
}

// expandTime times Matrix.Scenarios, backend probes included, on m.
func expandTime(m metrics, mx experiment.Matrix) error {
	var ds []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := mx.Scenarios(); err != nil {
			return err
		}
		ds = append(ds, float64(time.Since(t0))/float64(time.Millisecond))
	}
	m["experiment.expand.ms"] = median(ds)
	return nil
}
