package phy

import (
	"math"
	"math/bits"
	"math/rand"
)

// MaxLanes is the trial-lane capacity of the bit-sliced draw kernels: one
// uint64 lane mask packs up to 64 independent Monte-Carlo worlds.
const MaxLanes = 64

// ReceiveConcurrentMask is the bit-sliced form of ReceiveConcurrentFast: it
// draws one reception attempt at rx for up to 64 independent trial lanes at
// once and returns the lane mask of successful receptions.
//
// txs lists the candidate transmitters (ascending, as the protocol loops
// build them); txLanes[i] is the lane mask in which txs[i] actually
// transmits, so lane l's transmitter set is {txs[i] : txLanes[i] bit l}.
// active masks the lanes that want a draw at all; rngs[l] is lane l's
// private randomness stream.
//
// The contract is per-lane exactness: bit l of the result equals
// ReceiveConcurrentFast(rx, transmitters-of-lane-l, rngs[l]) with identical
// RNG consumption on rngs[l] — same draws, same order, no draws for lanes
// whose scalar call would not draw (inactive lanes, empty transmitter sets,
// sets containing rx itself, and certain links). Because every lane owns
// its RNG, the cross-lane processing order inside the kernel is free, and
// the win is that certain links — every link of a hard unit disk, the
// PRR-0/1 entries of a trace — resolve for all 64 lanes with pure bitset
// algebra and zero randomness.
func (t *LinkTable) ReceiveConcurrentMask(rx int, txs []int, txLanes []uint64, active uint64, rngs []*rand.Rand) uint64 {
	if active == 0 || len(txs) == 0 {
		return 0
	}
	n := t.n
	row := t.prr[rx*n : (rx+1)*n]

	// One pass over the candidate list classifies every lane: `self` lanes
	// include rx among their transmitters (scalar: immediate false, no
	// draws), `any` lanes have at least one transmitter.
	var self, any uint64
	for i, tx := range txs {
		if tx == rx {
			self |= txLanes[i]
		} else {
			any |= txLanes[i]
		}
	}
	elig := active & any &^ self
	if elig == 0 {
		return 0
	}

	var out uint64
	switch t.mode {
	case tableLogDistance:
		// Every eligible lane draws (beating only at >= 2 transmitters,
		// then fading, then the reception decision), so the lanes are
		// walked one by one. One pass over the candidates first gathers
		// each lane's transmitter count and best mean RSSI by visiting only
		// the set bits of txLanes[i] & elig; a max and a count do not
		// depend on visit order, so each lane sees the scalar loop's
		// values. The scratch is fixed-size and stays on the stack.
		rssiRow := t.rssi[rx*n : (rx+1)*n]
		var best [MaxLanes]float64
		var count [MaxLanes]int32
		for m := elig; m != 0; m &= m - 1 {
			best[bits.TrailingZeros64(m)] = math.Inf(-1)
		}
		for i, tx := range txs {
			// rx itself cannot carry an eligible bit: self lanes are not
			// eligible.
			r := rssiRow[tx]
			for m := txLanes[i] & elig; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				count[l]++
				if r > best[l] {
					best[l] = r
				}
			}
		}
		for need := elig; need != 0; need &= need - 1 {
			l := bits.TrailingZeros64(need)
			if t.logDistanceDraw(best[l], int(count[l]), rngs[l]) {
				out |= uint64(1) << l
			}
		}
	case tableBestPRR:
		// Lanes with a PRR-1 transmitter succeed with no draw (Draw(1));
		// lanes whose best link is uncertain draw once on it; lanes with
		// only PRR-0 links fail with no draw (Draw(0)) and never enter the
		// per-lane loop — on a hard unit disk the whole call is bitset
		// algebra.
		var sure, uncertain uint64
		for i, tx := range txs {
			if tx == rx {
				continue
			}
			if p := row[tx]; p >= 1 {
				sure |= txLanes[i]
			} else if p > 0 {
				uncertain |= txLanes[i]
			}
		}
		out = elig & sure
		for need := elig &^ sure & uncertain; need != 0; {
			l := bits.TrailingZeros64(need)
			bit := uint64(1) << l
			need &^= bit
			best := 0.0
			for i := range txs {
				if txLanes[i]&bit == 0 {
					continue
				}
				if p := row[txs[i]]; p > best {
					best = p
				}
			}
			// best < 1 here (no sure link in this lane), so this is exactly
			// Draw(best): no draw at 0, one Float64 otherwise.
			if best > 0 && rngs[l].Float64() < best {
				out |= bit
			}
		}
	default: // tableUnionPRR
		// A PRR-1 transmitter zeroes the miss product (union 1, no draw);
		// PRR-0 factors are exact ×1.0 identities and are skipped, which
		// leaves the remaining product folded in transmitter-list order —
		// bit-for-bit the scalar float sequence.
		var sure, uncertain uint64
		for i, tx := range txs {
			if tx == rx {
				continue
			}
			if p := row[tx]; p >= 1 {
				sure |= txLanes[i]
			} else if p > 0 {
				uncertain |= txLanes[i]
			}
		}
		out = elig & sure
		for need := elig &^ sure & uncertain; need != 0; {
			l := bits.TrailingZeros64(need)
			bit := uint64(1) << l
			need &^= bit
			miss := 1.0
			for i := range txs {
				if txLanes[i]&bit == 0 {
					continue
				}
				if p := row[txs[i]]; p > 0 && p < 1 {
					miss *= 1 - p
				}
			}
			// Replicate Draw's branches exactly: 1-miss can round to 1.0
			// (success without a draw) or, when every factor rounded to
			// 1.0, stay at 0 (failure without a draw).
			switch p := 1 - miss; {
			case p >= 1:
				out |= bit
			case p <= 0:
			default:
				if rngs[l].Float64() < p {
					out |= bit
				}
			}
		}
		// Lanes outside `uncertain` with no sure link hold only PRR-0
		// transmitters: Draw(0), failure, no randomness — already 0 in out.
	}
	return out
}
