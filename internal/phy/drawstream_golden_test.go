package phy_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
)

// The log-distance draw stream is pinned by value, not only by agreement
// between the table's two draw paths: the scalar and the bit-sliced kernel
// share the reception decision, so a change to it could move both in step
// and still pass the mask-vs-scalar tests. The digest below covers the
// outcomes of 200k scalar and 20k 64-lane calls on both testbeds, followed
// by every stream's next Int63, so one extra, skipped or changed draw
// anywhere alters it.

const (
	drawStreamScalarCalls = 100_000 // per testbed
	drawStreamMaskCalls   = 10_000  // per testbed
	drawStreamGolden      = "20e93a48675b8b9b8b9094a7e7231f0ba4ddba603488d4cbf55149df381e1701"
)

func drawStreamTables(t *testing.T) []*phy.LinkTable {
	t.Helper()
	var tables []*phy.LinkTable
	for i, tb := range []topology.Topology{topology.FlockLab(), topology.DCube()} {
		ch, err := phy.NewLogDistance(phy.DefaultParams(), tb.Positions, int64(11+i))
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, ch.LinkTable())
	}
	return tables
}

// hashScalarStream feeds the outcomes of random ReceiveConcurrentFast calls
// on table into h: random receivers, transmitter sets of 1–8 nodes that
// sometimes include the receiver, and now and then an empty set.
func hashScalarStream(h hash.Hash, table *phy.LinkTable, seed int64) {
	n := table.NumNodes()
	rng := rand.New(rand.NewSource(seed))
	pick := rand.New(rand.NewSource(seed + 1))
	set := make([]int, 0, 8)
	for call := 0; call < drawStreamScalarCalls; call++ {
		rx := pick.Intn(n)
		set = set[:0]
		for k := pick.Intn(9); k > 0; k-- {
			set = append(set, pick.Intn(n))
		}
		b := []byte{0}
		if table.ReceiveConcurrentFast(rx, set, rng) {
			b[0] = 1
		}
		h.Write(b)
	}
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(rng.Int63())))
}

// hashMaskStream feeds the result masks of random 64-lane
// ReceiveConcurrentMask calls on table into h: ascending candidate lists
// with dense or sparse lane masks (the receiver sometimes among them) and
// random active masks.
func hashMaskStream(h hash.Hash, table *phy.LinkTable, seed int64) {
	n := table.NumNodes()
	rngs := make([]*rand.Rand, phy.MaxLanes)
	for l := range rngs {
		rngs[l] = rand.New(rand.NewSource(seed*100 + int64(l)))
	}
	pick := rand.New(rand.NewSource(seed + 1))
	txs := make([]int, 0, n)
	txLanes := make([]uint64, 0, n)
	var buf [8]byte
	for call := 0; call < drawStreamMaskCalls; call++ {
		rx := pick.Intn(n)
		txs, txLanes = txs[:0], txLanes[:0]
		for node := 0; node < n; node++ {
			if pick.Intn(n) < 4 {
				lanes := pick.Uint64()
				if pick.Intn(2) == 0 {
					lanes &= pick.Uint64() & pick.Uint64()
				}
				txs = append(txs, node)
				txLanes = append(txLanes, lanes)
			}
		}
		active := pick.Uint64() | pick.Uint64()
		binary.LittleEndian.PutUint64(buf[:], table.ReceiveConcurrentMask(rx, txs, txLanes, active, rngs))
		h.Write(buf[:])
	}
	for _, rng := range rngs {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(rng.Int63())))
	}
}

func TestLogDistanceDrawStreamGolden(t *testing.T) {
	h := sha256.New()
	for i, table := range drawStreamTables(t) {
		hashScalarStream(h, table, int64(100+i))
		hashMaskStream(h, table, int64(200+i))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != drawStreamGolden {
		t.Fatalf("log-distance draw stream digest %s, want %s", got, drawStreamGolden)
	}
}
