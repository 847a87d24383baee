package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(med, tc.med) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// TestTailPercentile: the reported tail is the highest percentile with at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75},
		{40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, tailPercentile(len(xs))); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (10 samples beyond)", got)
	}
}

// TestSelfTimeOverlappingChildren: overlapping children are merged before
// subtraction, and a child's time outside its parent is ignored.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a.child", Start: 15 * ms, End: 20 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{
		1: 100*ms - 40*ms - 10*ms, // covered: [10,50) and [90,100)
		2: 30*ms - 5*ms,
		3: 20 * ms,
		4: 30 * ms,
		5: 5 * ms,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := selfByName(spans)["job"]; !near(got, 50) {
		t.Errorf("selfByName[job] = %v ms, want 50", got)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.open("x", "", 0)
	tr.end(id)
	tr.count("c", 1)
	if err := tr.time("y", "", 0, func() error { return nil }); err != nil || id != 0 ||
		tr.durations("x", time.Millisecond) != nil || tr.counter("c") != 0 {
		t.Fatal("nil tracer recorded something")
	}
}

// TestTallyFailedRatio: errors and failed checks count as failed
// operations; successes and passed checks only as attempted.
func TestTallyFailedRatio(t *testing.T) {
	var tl tally
	if tl.ratio() != 0 {
		t.Fatal("empty tally has a nonzero ratio")
	}
	tl.op(nil)
	tl.op(errors.New("status 500"))
	tl.check(true, "fine")
	tl.check(false, "digest mismatch")
	if tl.attempted != 4 || tl.failed != 2 || tl.ratio() != 0.5 {
		t.Fatalf("tally = %d attempted, %d failed, ratio %v; want 4, 2, 0.5", tl.attempted, tl.failed, tl.ratio())
	}
	if len(tl.notes) != 2 {
		t.Fatalf("notes = %q, want the two failures", tl.notes)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 9.9, 10.1}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		cur         []float64
		lowerBetter bool
		bound       *float64
		want        string
	}{
		{"faster", scale(base, 0.8), true, &bound, "better"},
		{"slower beyond bound", scale(base, 1.3), true, &bound, "worse"},
		{"slower within bound", scale(base, 1.05), true, &bound, "unchanged"},
		{"higher is better", scale(base, 1.3), false, &bound, "better"},
		{"no bound, slower", scale(base, 1.3), true, nil, "worse"},
		{"no bound, same", base, true, nil, "unresolved"},
	} {
		if got := compare(base, tc.cur, tc.lowerBetter, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// A spread wider than the bound cannot resolve a small shift.
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if got := compare(noisy, scale(noisy, 1.05), true, &bound).verdict; got != "unresolved" {
		t.Errorf("noisy: verdict %q, want unresolved", got)
	}
	c := compare(base, scale(base, 0.8), true, &bound)
	if c.wins != 10 || c.pairs != 10 {
		t.Errorf("pairs won %d/%d, want 10/10", c.wins, c.pairs)
	}
	// A faster set whose runs failed checks gets no speed verdict.
	clean := outcome{attempted: 710}
	for _, tc := range []struct {
		name string
		cur  outcome
		want string
	}{
		{"clean", outcome{attempted: 700}, "better"},
		{"more failed operations", outcome{attempted: 710, failed: 1}, "failed"},
		{"a line with failed checks", outcome{attempted: 710, incorrect: 1}, "failed"},
	} {
		if got := gate(c.verdict, clean, tc.cur); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompareReadsFailures runs the comparator's table over two result
// sets on disk, the new one faster but with a failed digest check.
func TestCompareReadsFailures(t *testing.T) {
	line := func(correct bool, failed int, wall float64) string {
		r := result{Correct: correct, Attempted: 71, Failed: failed,
			Metrics: map[string]metricOut{"wall_s": {Value: wall, Unit: "s"}}}
		raw, _ := json.Marshal(r)
		return string(raw) + "\n"
	}
	write := func(lines ...string) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "paper.jsonl"), []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	oldDir := write(line(true, 0, 4.0), line(true, 0, 4.1), line(true, 0, 3.9))
	newDir := write(line(true, 0, 2.0), line(false, 1, 2.1), line(true, 0, 1.9))
	old, err := loadSet(oldDir)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := loadSet(newDir)
	if err != nil {
		t.Fatal(err)
	}
	if o := cur["paper"].outcome; o.attempted != 213 || o.failed != 1 || o.incorrect != 1 {
		t.Fatalf("new outcome %+v, want 1 failed of 213 on 1 incorrect line", o)
	}
	bound := 0.25
	spec := benchSpec{EndToEnd: []specMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: &bound}}}
	var out strings.Builder
	if err := report(&out, spec, old, cur); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0/213", "1/213"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks failed/attempted %q:\n%s", want, out.String())
		}
	}
	for _, row := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		if f := strings.Fields(row); f[len(f)-1] != "failed" {
			t.Errorf("row %q: want verdict failed", row)
		}
	}
}

// TestSchemaMatchesBenchmarkJSON keeps the metric lists the benchmark
// prints in step with the repository's BENCHMARK.json.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestRouteOf(t *testing.T) {
	for path, want := range map[string][2]string{
		"/v1/jobs":                             {"submit", ""},
		"/v1/jobs/j000007/events":              {"events", "j000007"},
		"/v1/jobs/j000007/results":             {"results", "j000007"},
		"/v1/workers":                          {"register", ""},
		"/v1/workers/w1/heartbeat":             {"heartbeat", ""},
		"/v1/workers/w1/shards/j000002/1/rows": {"upload", "j000002"},
		"/v1/workers/w1/shards/j000002/1/done": {"done", "j000002"},
		"/v1/healthz":                          {"other", ""},
	} {
		if r, j := routeOf(path); r != want[0] || j != want[1] {
			t.Errorf("routeOf(%s) = %s, %s; want %s, %s", path, r, j, want[0], want[1])
		}
	}
}

// TestPartsWall checks wall_s as the sum of per-part medians: one
// repetition's slow part does not move it.
func TestPartsWall(t *testing.T) {
	var parts [][]float64
	for _, rep := range [][]time.Duration{
		{1 * time.Second, 2 * time.Second},
		{1 * time.Second, 9 * time.Second}, // a burst in part 2
		{5 * time.Second, 2 * time.Second}, // a burst in part 1
	} {
		parts = addParts(parts, rep)
	}
	if got := partsWall(parts); !near(got, 3) {
		t.Errorf("partsWall = %v, want 3", got)
	}
}
