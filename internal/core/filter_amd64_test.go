package core

import (
	"math"
	"math/rand"
	"testing"
)

// edgeFloat draws from the values the column passes' operand rules are
// about: a raw-bit special of specialFloat, or one of ±0, ±1 and the
// neighbours of 1, so equal operands, ±0 against ±0 and ties between a
// zone's two gaps come up often.
func edgeFloat(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return specialFloat(rng, 3)
	}
	v := []float64{0, 1, math.Nextafter(1, 2), math.Nextafter(1, 0), 2}[rng.Intn(5)]
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// TestKeepMaskAsmMatchesGeneric holds keepMask — the SSE2 groups of 8
// rows and the Go tail — to keepMaskGo, the Go body every other
// architecture runs, bit for bit: every length 0–64, columns of edge
// values (NaNs of both signs and random payloads, ±Inf, ±0, subnormals)
// and copies of the bounds themselves, and bounds drawn raw and as
// q ± r from raw q and r.
func TestKeepMaskAsmMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	col := make([]float64, 64)
	for trial := 0; trial < 3000; trial++ {
		hi, lo := edgeFloat(rng), edgeFloat(rng)
		if trial%2 == 0 {
			q, r := edgeFloat(rng), edgeFloat(rng)
			hi, lo = q+r, q-r
		}
		for i := range col {
			switch rng.Intn(4) {
			case 0:
				col[i] = hi
			case 1:
				col[i] = lo
			default:
				col[i] = edgeFloat(rng)
			}
		}
		for n := 0; n <= len(col); n++ {
			if got, want := keepMask(col[:n], hi, lo), keepMaskGo(col[:n], hi, lo); got != want {
				t.Fatalf("trial %d, %d rows, hi %x lo %x: keepMask %064b, Go body %064b",
					trial, n, math.Float64bits(hi), math.Float64bits(lo), got, want)
			}
		}
	}
}

// TestZoneBoundsAsmMatchesGeneric holds zoneGaps — two zones an SSE2
// step, then the odd one — to zoneGapsGo bit for bit: every length 0–40,
// with lb, the zones' lo and hi and the query distance q all edge values
// (NaNs of both signs and random payloads, ±Inf, ±0, subnormals), so
// MAXPD's source-operand rule decides NaN and ±0 ties exactly where Go's
// selections do. ZoneBounds over several columns must then give the
// Go body's bounds too.
func TestZoneBoundsAsmMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const zones, l = 40, 5
	lo, hi := make([][]float64, l), make([][]float64, l)
	for c := range lo {
		lo[c], hi[c] = make([]float64, zones), make([]float64, zones)
	}
	qd := make([]float64, l)
	got, want := make([]float64, zones), make([]float64, zones)
	for trial := 0; trial < 3000; trial++ {
		for c := range lo {
			qd[c] = edgeFloat(rng)
			for i := range zones {
				lo[c][i], hi[c][i] = edgeFloat(rng), edgeFloat(rng)
			}
		}
		for i := range got {
			got[i] = edgeFloat(rng)
		}
		copy(want, got)
		for n := 0; n <= zones; n++ {
			zoneGaps(got[:n], lo[0][:n], hi[0][:n], qd[0])
			zoneGapsGo(want[:n], lo[0][:n], hi[0][:n], qd[0])
			for i := range n {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d, %d zones, zone %d (q %x lo %x hi %x): zoneGaps %x, Go body %x", trial, n, i,
						math.Float64bits(qd[0]), math.Float64bits(lo[0][i]), math.Float64bits(hi[0][i]),
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		first := rng.Intn(zones)
		n := rng.Intn(zones - first + 1)
		ZoneBounds(got[:n], lo, hi, qd, first)
		clear(want[:n])
		for c := range lo {
			zoneGapsGo(want[:n], lo[c][first:first+n], hi[c][first:first+n], qd[c])
		}
		for i := range n {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d, zones [%d,%d), zone %d: ZoneBounds %x, Go body %x",
					trial, first, first+n, first+i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}
