package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"iotmpc/internal/experiment"
	"iotmpc/internal/store"
)

// spanTransport is an http.RoundTripper that times every request into a
// span named prefix.route, counts failed requests as failed operations,
// and hands each finished request to an optional hook. The tracer is
// swapped per repetition (nil while untraced).
type spanTransport struct {
	base   http.RoundTripper
	prefix string
	tally  *tally
	tr     atomic.Pointer[tracer]
	hook   func(route, trace string, start, end time.Time)
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	route, trace := routeOf(req.URL.Path)
	tr := t.tr.Load()
	switch {
	case err != nil && req.Context().Err() != nil:
		// The caller gave up (a worker stopping): not a service failure.
	case err != nil:
		tr.count(t.prefix+".http_errors", 1)
		t.tally.op(fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err))
	case resp.StatusCode/100 != 2:
		tr.count(t.prefix+".http_errors", 1)
		t.tally.op(fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode))
	default:
		t.tally.op(nil)
	}
	tr.record(t.prefix+"."+route, trace, 0, start, end)
	if t.hook != nil && err == nil {
		t.hook(route, trace, start, end)
	}
	return resp, err
}

// routeOf names a /v1 request path's route, and the job it concerns when
// the path carries one (the trace id shared by all of a job's spans).
func routeOf(path string) (route, job string) {
	p := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(p) == 2 && p[1] == "jobs":
		return "submit", ""
	case len(p) == 4 && p[1] == "jobs":
		return p[3], p[2] // events, results
	case len(p) == 3 && p[1] == "jobs":
		return "job", p[2]
	case len(p) == 2 && p[1] == "workers":
		return "register", ""
	case len(p) == 4 && p[1] == "workers":
		return p[3], "" // heartbeat
	case len(p) == 7 && p[1] == "workers":
		if p[6] == "rows" {
			return "upload", p[4]
		}
		return p[6], p[4] // done
	}
	return "other", ""
}

// svcClient is the benchmark's closed-loop client of a sweep service.
type svcClient struct {
	base string
	hc   *http.Client
}

// jobRun is one job seen from the client: its outcome and timings.
type jobRun struct {
	job      store.Job
	rows     []byte
	latency  time.Duration // submit to last row read
	done     time.Time     // terminal state observed
	finished time.Time     // last row read
}

// runJob submits m, waits for the terminal state on the job's event
// stream and reads its results, recording the service.* spans under trace.
func (c *svcClient) runJob(tr *tracer, trace string, m experiment.Matrix) (jobRun, error) {
	var run jobRun
	start := time.Now()
	root := tr.open("service.job", trace, 0)
	defer tr.end(root)
	var id string
	err := tr.time("service.submit", trace, root, func() (err error) {
		id, err = c.submit(m)
		return err
	})
	if err != nil {
		return run, err
	}
	err = tr.time("service.events", trace, root, func() (err error) {
		run.job, err = c.watch(id, func(at time.Time) {
			tr.record("service.queue_wait", trace, root, start, at)
		})
		return err
	})
	if err != nil {
		return run, err
	}
	run.done = time.Now()
	if run.job.State != store.Done {
		return run, fmt.Errorf("job %s ended %s: %s", id, run.job.State, run.job.Error)
	}
	err = tr.time("service.results", trace, root, func() (err error) {
		run.rows, err = c.get("/v1/jobs/" + id + "/results")
		return err
	})
	run.finished = time.Now()
	run.latency = run.finished.Sub(start)
	return run, err
}

func (c *svcClient) submit(m experiment.Matrix) (string, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var job store.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return job.ID, nil
}

func (c *svcClient) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, raw)
	}
	return raw, nil
}

// watch follows the job's server-sent events until a terminal state
// event, calling firstProgress when the first progress event arrives.
func (c *svcClient) watch(id string, firstProgress func(time.Time)) (store.Job, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return store.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return store.Job{}, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var name string
	progressed := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && name == "progress":
			if !progressed {
				progressed = true
				firstProgress(time.Now())
			}
		case strings.HasPrefix(line, "data: ") && name == "state":
			var job store.Job
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &job); err != nil {
				return store.Job{}, fmt.Errorf("events %s: %w", id, err)
			}
			if job.State.Terminal() {
				return job, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return store.Job{}, fmt.Errorf("events %s: %w", id, err)
	}
	return store.Job{}, fmt.Errorf("events %s: stream ended before a terminal state", id)
}

// localJSONL is the reference a job's stream must equal: the same matrix
// run by an experiment.Runner with a JSONL sink and no cache.
func localJSONL(m experiment.Matrix, workers int) ([]byte, error) {
	var out bytes.Buffer
	_, err := experiment.NewRunner(experiment.WithWorkers(workers),
		experiment.WithSinks(&experiment.JSONLSink{W: &out})).Run(m)
	return out.Bytes(), err
}

// mix derives an input seed from the workload seed and a position, so
// every repetition and job gets fresh but reproducible inputs.
func mix(seed int64, parts ...int) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + x<<6 + x>>2
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 29
	}
	return int64(x >> 1)
}

// decodeRows parses a JSONL result stream.
func decodeRows(jsonl []byte) ([]experiment.ScenarioResult, error) {
	var rows []experiment.ScenarioResult
	dec := json.NewDecoder(bytes.NewReader(jsonl))
	for dec.More() {
		var r experiment.ScenarioResult
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("decode result row: %w", err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}
