package core

import (
	"runtime"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
)

// BenchmarkRunRoundLanes is the warm lane-round cost: one full-width batch
// of phy.MaxLanes trials per op on a 25-node S3 deployment where every node
// is a source (600 sealed share vectors per trial), after a first batch has
// warmed the round arenas. Besides the per-batch ns/op, B/op and
// allocs/op it reports B/trial and allocs/trial.
func BenchmarkRunRoundLanes(b *testing.B) {
	grid, err := topology.Grid(5, 5, 30)
	if err != nil {
		b.Fatal(err)
	}
	boot, err := RunBootstrap(Config{
		Topology:    grid,
		Protocol:    S3,
		Sources:     sourcesUpTo(25),
		ChannelSeed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := RunRoundLanes(boot, 0, phy.MaxLanes); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunRoundLanes(boot, uint64((i+1)*phy.MaxLanes), phy.MaxLanes); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	trials := float64(b.N * phy.MaxLanes)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/trials, "B/trial")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/trials, "allocs/trial")
}
