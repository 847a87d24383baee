package phy

import (
	"math"
	"math/rand"
)

// tableMode selects how a LinkTable combines concurrent same-packet
// transmitters into one reception draw. Each mode replicates — draw for
// draw — the ReceiveConcurrentFast semantics of the backend it snapshots,
// so switching a protocol loop from the Radio interface to its table
// changes nothing about the simulated outcome, only the cost of reaching
// it.
type tableMode uint8

const (
	// tableLogDistance: best mean RSSI over the transmitters, one beating
	// draw, one fading draw, then the RSSI→PRR sigmoid (LogDistance).
	tableLogDistance tableMode = iota
	// tableBestPRR: a single Bernoulli draw on the best transmitter link
	// (UnitDisk — idealized CT, concurrency never hurts, never boosts).
	tableBestPRR
	// tableUnionPRR: a single Bernoulli draw on the union probability
	// 1 − Π(1 − PRRᵢ) of independent links (trace replay).
	tableUnionPRR
)

// LinkTable is an immutable, flat snapshot of a Radio's link model — the
// batched form of the per-link queries the flood kernel makes millions of
// times per scenario. It holds the n×n link matrices receiver-major
// (entry rx·n+tx), so a reception loop that fixes rx and scans a
// transmitter list walks one cache-resident row instead of chasing n row
// pointers, and its draw methods are direct calls with no interface
// dispatch and no error returns.
//
// The contract that makes the swap safe is exactness: for the same
// *rand.Rand state, ReceiveConcurrentFast consumes the same draws in the
// same order and returns the same outcome as the backend method it
// shadows (pinned by the equivalence tests in this package and
// internal/trace). Certain links (PRR exactly 0 or 1) keep the
// backend-wide rule of consuming no randomness.
//
// Tables are built once per Radio (backends cache them behind a
// sync.Once) and are safe for concurrent readers; indices must be valid
// node numbers — the hot path deliberately carries no range checks.
type LinkTable struct {
	n    int
	mode tableMode

	// rssi[rx*n+tx] is the mean received power at rx from tx in dBm
	// (tableLogDistance only; nil otherwise).
	rssi []float64
	// prr[rx*n+tx] is the long-run reception ratio of the link tx→rx,
	// with the diagonal forced to 0 (a node never receives itself).
	prr []float64
	// certain[rx*n+tx] reports prr exactly 0 or 1: a lone draw on the
	// link consumes no randomness.
	certain []bool

	// Frozen LogDistance draw parameters (tableLogDistance only).
	fadingSigmaDB  float64
	ctBeatingLoss  float64
	ctGainDB       float64
	sensitivityDBm float64
	prrMidpointDBm float64
	prrWidthDB     float64
	// log2[k] = math.Log2(k) for 0 <= k <= n: the CT gain per
	// transmitter count, tabulated once instead of recomputed per draw
	// (bitwise-identical — the table holds the function's own outputs).
	log2 []float64
	// brackets[k] bounds prrFromRSSI over grid cell k, the faded RSSIs x
	// with (x-sensitivityDBm)*bracketInv in [k, k+1) (tableLogDistance
	// only; nil when the parameters fall outside the exactness argument,
	// and then every decision is exact arithmetic). See receives.
	brackets   []prrBracket
	bracketInv float64
}

// prrBracket holds bounds lo < p < hi on the computed reception
// probability p of every faded RSSI that can land in its grid cell.
type prrBracket struct{ lo, hi float64 }

const (
	// prrCellsPerWidth sets the bracket grid step to PRRWidthDB/80
	// (1/32 dB at the default 2.5 dB width): a cell's bracket then spans at
	// most 3/320 of probability, so a uniform draw is rarely inside it.
	prrCellsPerWidth = 80
	// prrMaxCells caps the grid at 4096 cells of 16 bytes: at most 64 KiB
	// of brackets per table. Wider sigmoid spans get a coarser step.
	prrMaxCells = 4096
	// prrTopZ ends the grid at PRRMidpointDBm + 40 widths, where the
	// computed sigmoid has reached 1; the rare faded RSSI above it takes
	// the exact path.
	prrTopZ = 40
	// prrBracketMargin widens every bracket by far more than the error
	// of the computed sigmoid (under 1e-15) and the grid's rounding.
	prrBracketMargin = 1e-9
	// prrMaxScale is the largest (|sensitivity|+|grid top|)/width the
	// brackets are built for: beyond it the grid points' own rounding
	// could approach the margin, so the table keeps the exact path only.
	prrMaxScale = 1e5
)

// newLogDistanceTable snapshots the log-distance backend: the RSSI matrix
// (rssi[tx][rx], transposed into receiver-major order) plus the sigmoid
// and per-packet-draw parameters.
func newLogDistanceTable(params Params, rssi [][]float64) *LinkTable {
	n := len(rssi)
	t := &LinkTable{
		n:              n,
		mode:           tableLogDistance,
		rssi:           make([]float64, n*n),
		prr:            make([]float64, n*n),
		certain:        make([]bool, n*n),
		fadingSigmaDB:  params.FadingSigmaDB,
		ctBeatingLoss:  params.CTBeatingLoss,
		ctGainDB:       params.CTGainDB,
		sensitivityDBm: params.SensitivityDBm,
		prrMidpointDBm: params.PRRMidpointDBm,
		prrWidthDB:     params.PRRWidthDB,
	}
	for tx := 0; tx < n; tx++ {
		for rx := 0; rx < n; rx++ {
			i := rx*n + tx
			t.rssi[i] = rssi[tx][rx]
			t.prr[i] = t.prrFromRSSI(rssi[tx][rx])
			t.certain[i] = t.prr[i] <= 0 || t.prr[i] >= 1
		}
	}
	t.log2 = make([]float64, n+1)
	for k := 1; k <= n; k++ {
		t.log2[k] = math.Log2(float64(k))
	}
	t.buildBrackets()
	return t
}

// buildBrackets tabulates prrFromRSSI on the grid g[j] = sensitivity +
// j*step and brackets cell k by its neighbours: lo[k] = p(g[k-1]) - margin,
// hi[k] = p(g[k+2]) + margin. Rounding can misplace a faded RSSI by at most
// a sliver of a cell, so every x whose index is k lies in [g[k-1], g[k+2]],
// and since the sigmoid increases and its computed form is within 1e-15 of
// it, lo[k] < prrFromRSSI(x) < hi[k]. ARCHITECTURE.md "Hot path" has the
// full argument.
func (t *LinkTable) buildBrackets() {
	s, w := t.sensitivityDBm, t.prrWidthDB
	top := t.prrMidpointDBm + prrTopZ*w
	if !(math.Abs(s)+math.Abs(top) < prrMaxScale*w) {
		return // also rejects infinite or NaN parameters
	}
	step := w / prrCellsPerWidth
	if span := top - s; span > prrMaxCells*step {
		step = span / prrMaxCells
	}
	cells := int(math.Min(math.Ceil((top-s)/step), prrMaxCells))
	if cells < 1 {
		cells = 1 // midpoint far below the sensitivity floor
	}
	// p[j+1] = prrFromRSSI(g[j]) for j = -1 .. cells+1.
	p := make([]float64, cells+3)
	for j := range p {
		p[j] = t.prrFromRSSI(s + float64(j-1)*step)
	}
	t.brackets = make([]prrBracket, cells)
	for k := range t.brackets {
		t.brackets[k] = prrBracket{lo: p[k] - prrBracketMargin, hi: p[k+3] + prrBracketMargin}
	}
	t.bracketInv = 1 / step
}

// prrTable builds a PRR-only table; prr is [tx][rx] and is transposed,
// with the diagonal forced to 0.
func prrTable(mode tableMode, prr [][]float64) *LinkTable {
	n := len(prr)
	t := &LinkTable{
		n:       n,
		mode:    mode,
		prr:     make([]float64, n*n),
		certain: make([]bool, n*n),
	}
	for tx := 0; tx < n; tx++ {
		for rx := 0; rx < n; rx++ {
			p := prr[tx][rx]
			if tx == rx {
				p = 0
			}
			i := rx*n + tx
			t.prr[i] = p
			t.certain[i] = p <= 0 || p >= 1
		}
	}
	return t
}

// BestPRRTable builds a table whose concurrent receptions draw once on
// the best transmitter link — the UnitDisk semantics. prr is indexed
// [tx][rx]; the diagonal is forced to 0.
func BestPRRTable(prr [][]float64) *LinkTable { return prrTable(tableBestPRR, prr) }

// UnionPRRTable builds a table whose concurrent receptions draw once on
// the union probability of independent links — the trace-replay
// semantics. prr is indexed [tx][rx]; the diagonal is forced to 0.
func UnionPRRTable(prr [][]float64) *LinkTable { return prrTable(tableUnionPRR, prr) }

// NumNodes returns the number of nodes in the snapshot.
func (t *LinkTable) NumNodes() int { return t.n }

// PRR returns the long-run reception ratio of the directed link tx→rx —
// the same value the snapshotted Radio's PRR reports, without the error
// return.
func (t *LinkTable) PRR(tx, rx int) float64 { return t.prr[rx*t.n+tx] }

// Certain reports whether the link tx→rx has PRR exactly 0 or 1, so a
// lone reception draw on it consumes no randomness.
func (t *LinkTable) Certain(tx, rx int) bool { return t.certain[rx*t.n+tx] }

func (t *LinkTable) prrFromRSSI(rssi float64) float64 {
	if rssi < t.sensitivityDBm {
		return 0
	}
	return 1 / (1 + math.Exp(-(rssi-t.prrMidpointDBm)/t.prrWidthDB))
}

// receives reports u < prrFromRSSI(faded), the log-distance reception
// decision for a uniform draw u in [0, 1), without evaluating the sigmoid
// unless u falls inside the bracket of faded's grid cell (a fraction of a
// percent of draws) or faded lies above the grid.
func (t *LinkTable) receives(faded, u float64) bool {
	if faded < t.sensitivityDBm {
		return false // p = 0
	}
	if r := (faded - t.sensitivityDBm) * t.bracketInv; r < float64(len(t.brackets)) {
		b := t.brackets[int(r)]
		if u < b.lo {
			return true
		}
		if u >= b.hi {
			return false
		}
	}
	return u < t.prrFromRSSI(faded)
}

// logDistanceDraw is the draw sequence both log-distance reception paths
// run once the transmitter set is known to be non-empty and free of the
// receiver: a beating draw at two or more transmitters, a fading draw on
// the best mean RSSI plus the CT gain, then the reception draw.
func (t *LinkTable) logDistanceDraw(best float64, count int, rng *rand.Rand) bool {
	if count >= 2 && rng.Float64() < t.ctBeatingLoss {
		return false // beating corrupted the superposition
	}
	var log2Count float64
	if count < len(t.log2) {
		log2Count = t.log2[count]
	} else { // defensive: a caller-supplied list with duplicates
		log2Count = math.Log2(float64(count))
	}
	faded := best + rng.NormFloat64()*t.fadingSigmaDB + t.ctGainDB*log2Count
	return t.receives(faded, rng.Float64())
}

// ReceiveConcurrentFast draws one reception attempt at rx when every node
// in transmitters sends the same packet in the same synchronized slot. It
// is draw-for-draw identical to the snapshotted backend's
// ReceiveConcurrentFast: same RNG consumption order, same outcome, at
// table-lookup cost.
func (t *LinkTable) ReceiveConcurrentFast(rx int, transmitters []int, rng *rand.Rand) bool {
	if len(transmitters) == 0 {
		return false
	}
	row := t.prr[rx*t.n : (rx+1)*t.n]
	switch t.mode {
	case tableLogDistance:
		rssiRow := t.rssi[rx*t.n : (rx+1)*t.n]
		best := math.Inf(-1)
		for _, tx := range transmitters {
			if tx == rx {
				return false // a transmitting node cannot receive in the same slot
			}
			if r := rssiRow[tx]; r > best {
				best = r
			}
		}
		return t.logDistanceDraw(best, len(transmitters), rng)
	case tableBestPRR:
		best := 0.0
		for _, tx := range transmitters {
			if tx == rx {
				return false
			}
			if p := row[tx]; p > best {
				best = p
			}
		}
		return Draw(best, rng)
	default: // tableUnionPRR
		miss := 1.0
		for _, tx := range transmitters {
			if tx == rx {
				return false
			}
			miss *= 1 - row[tx]
		}
		return Draw(1-miss, rng)
	}
}

// HopDistancesInto fills dist (length NumNodes) with the minimum hop
// count from src to every node over links with PRR >= threshold;
// unreachable nodes get -1. It produces exactly the values of the
// package-level HopDistances over the snapshotted Radio, with no
// allocation: the caller owns dist (typically arena-borrowed).
func (t *LinkTable) HopDistancesInto(dist []int, src int, threshold float64) {
	n := t.n
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	// Level-synchronous expansion: pass `level` promotes every unreached
	// node adjacent to a level-`level` node. Hop distances are unique, so
	// this matches the BFS the Radio-generic query runs.
	for level := 0; ; level++ {
		advanced := false
		for u := 0; u < n; u++ {
			if dist[u] != level {
				continue
			}
			for v := 0; v < n; v++ {
				if v == u || dist[v] >= 0 {
					continue
				}
				if t.prr[v*n+u] >= threshold {
					dist[v] = level + 1
					advanced = true
				}
			}
		}
		if !advanced {
			return
		}
	}
}

// HopDistances is HopDistancesInto with a freshly allocated result.
func (t *LinkTable) HopDistances(src int, threshold float64) []int {
	dist := make([]int, t.n)
	t.HopDistancesInto(dist, src, threshold)
	return dist
}
