package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"iotmpc/internal/cache"
	"iotmpc/internal/experiment"
	"iotmpc/internal/store"
)

// probeCache stores the workload's result rows in a fresh cache at dir
// and reads them back, timing each Put and Get.
func probeCache(dir string, rows []experiment.ScenarioResult, m metrics) error {
	defer os.RemoveAll(dir)
	if len(rows) == 0 {
		return nil
	}
	cs, err := cache.Open(dir)
	if err != nil {
		return err
	}
	keys := make([]string, len(rows))
	var puts, gets []float64
	for i, r := range rows {
		if keys[i], err = experiment.ScenarioCacheKey(r.Scenario); err != nil {
			return err
		}
		t0 := time.Now()
		if err := cs.Put(keys[i], r); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t0))/float64(time.Microsecond))
	}
	for _, k := range keys {
		var out experiment.ScenarioResult
		t0 := time.Now()
		ok, err := cs.Get(k, &out)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("cache probe: entry %s missing after Put", k)
		}
		gets = append(gets, float64(time.Since(t0))/float64(time.Microsecond))
	}
	st, err := cs.Stats()
	if err != nil {
		return err
	}
	m["cache.put.us"] = median(puts)
	m["cache.get.us"] = median(gets)
	if st.Entries > 0 {
		m["cache.entry_bytes"] = float64(st.TotalBytes) / float64(st.Entries)
	}
	return nil
}

// storeMetrics measures a closed store: its on-disk bytes (WAL plus
// snapshot) per persisted row, and how long reopening (recovery) takes.
func storeMetrics(dir string, m metrics) error {
	var bytes int64
	for _, name := range []string{"wal.log", "snapshot.json"} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err == nil {
			bytes += info.Size()
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	m["store.open.ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	rows := st.RowCount()
	if err := st.Close(); err != nil {
		return err
	}
	if rows > 0 {
		m["store.bytes_per_row"] = float64(bytes) / float64(rows)
	}
	return nil
}
