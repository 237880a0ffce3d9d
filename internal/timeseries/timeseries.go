// Package timeseries implements the trace representation and the dynamic
// time warping (DTW) error metric the paper uses to quantify HPC measurement
// error (§2): "HPC error [is the] magnitude of difference between
// corresponding HPC measurements made in two runs of a workload, one in
// polling and other in sampling mode. The correspondence between the two HPC
// traces is established by dynamic time warping."
package timeseries

import (
	"errors"
	"math"
)

// Series is a uniformly sampled scalar trace (one value per sampling
// interval) for one event.
type Series []float64

// Sum returns the total of the series.
func (s Series) Sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// Mean returns the average value (0 for an empty series).
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s))
}

// Map evaluates fn pointwise across the input series — the shape of a
// derived-event formula applied to per-interval event rates — producing a
// series of the common (minimum) length. The input slice passed to fn is
// reused between calls; fn must not retain it. Map with no series returns
// nil.
func Map(fn func(in []float64) float64, series ...Series) Series {
	if len(series) == 0 {
		return nil
	}
	n := len(series[0])
	for _, s := range series[1:] {
		if len(s) < n {
			n = len(s)
		}
	}
	out := make(Series, n)
	in := make([]float64, len(series))
	for t := 0; t < n; t++ {
		for i, s := range series {
			in[i] = s[t]
		}
		out[t] = fn(in)
	}
	return out
}

// ErrDTWEmpty is returned when either input series is empty.
var ErrDTWEmpty = errors.New("timeseries: DTW on empty series")

// DTWPath is one aligned index pair produced by DTW.
type DTWPath struct{ I, J int }

// DTW computes the dynamic-time-warping alignment between a and b under a
// Sakoe–Chiba band of the given half-width (window <= 0 means unconstrained)
// with absolute-difference local cost. It returns the total alignment cost
// and the warping path (monotone in both indices, from (0,0) to (n−1,m−1)).
//
// Only the band is stored: a half-width w costs O(n·w) time and memory,
// and a window <= 0 or >= max(n, m) spans every column and costs O(n·m).
// DTW allocates a fresh band buffer per call; an Aligner keeps one.
func DTW(a, b Series, window int) (cost float64, path []DTWPath, err error) {
	var al Aligner
	return al.dtw(a, b, window)
}

// Aligner runs DTW alignments in a band buffer it keeps from one call to
// the next, so a sequence of alignments allocates the buffer once and
// each call allocates just its path. The zero value is ready to use. An
// Aligner is not safe for concurrent use: give each goroutine its own.
type Aligner struct{ rows [][]float64 }

// dtw is DTW in the aligner's band buffer, grown to fit when too small.
func (al *Aligner) dtw(a, b Series, window int) (cost float64, path []DTWPath, err error) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, nil, ErrDTWEmpty
	}
	bd := newBand(n, m, window)
	d := al.grow(n+1, bd.stride)
	fillBand(d, a, b, bd)

	// at reads cell (i, j) of the full (n+1)×(m+1) cost matrix: every cell
	// the band does not store is +Inf there.
	at := func(i, j int) float64 {
		k := j - bd.start(i)
		if k < 0 || k >= bd.stride {
			return math.Inf(1)
		}
		return d[i][k]
	}
	total := at(n, m)
	if math.IsInf(total, 1) {
		return 0, nil, errors.New("timeseries: DTW band excluded the corner")
	}

	// Backtrack the optimal path.
	path = make([]DTWPath, 0, n+m-1)
	i, j := n, m
	for i > 0 && j > 0 {
		path = append(path, DTWPath{i - 1, j - 1})
		diag, up, left := at(i-1, j-1), at(i-1, j), at(i, j-1)
		switch {
		case diag <= up && diag <= left:
			i, j = i-1, j-1
		case up <= left:
			i--
		default:
			j--
		}
	}
	// Reverse into forward order.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return total, path, nil
}

// band is the stored part of the (n+1)×(m+1) DTW cost matrix: row i
// computes columns [max(i−w, 1), min(i+w, m)] and stores the stride
// columns from start(i) on, which cover [i−w−1, i+w+1] ∩ [0, m] — the
// computed cells plus the +Inf neighbours their successors read.
type band struct {
	m, w, stride int
}

// newBand resolves the Sakoe–Chiba half-width — wide enough to reach the
// corner when n != m, and capped at max(n, m), past which the band already
// spans every column — and the row stride, which never exceeds m+1.
func newBand(n, m, window int) band {
	w := max(n, m)
	if window > 0 && window < w {
		w = window
	}
	w = max(w, n-m+1, m-n+1)
	return band{m: m, w: w, stride: min(2*w+3, m+1)}
}

// grow returns the aligner's first rows rows, each stride cells long,
// allocating what is missing. Each row is an allocation of its own, as in
// the full matrix: a single O(n·w) block would be placed wherever the
// heap has a gap that large, which varies from run to run, and with it
// the process's resident memory.
func (al *Aligner) grow(rows, stride int) [][]float64 {
	if len(al.rows) < rows {
		al.rows = append(al.rows, make([][]float64, rows-len(al.rows))...)
	}
	d := al.rows[:rows]
	for i, r := range d {
		if cap(r) < stride {
			r = make([]float64, stride)
		}
		d[i] = r[:stride]
	}
	return d
}

// start is the first column row i stores.
func (bd band) start(i int) int {
	return min(max(i-bd.w-1, 0), bd.m+1-bd.stride)
}

// fillBand runs the DTW forward pass into d, row i of the band at d[i].
// Every stored cell outside the computed band is +Inf and cell (0, 0) is
// 0 — exactly the full matrix's values — and each cell is computed with
// the full matrix's recurrence, so the band matches it bit for bit.
//
//bayesperf:hotpath
func fillBand(d [][]float64, a, b Series, bd band) {
	inf := math.Inf(1)
	row := d[0]
	for k := range row {
		row[k] = inf
	}
	row[0] = 0
	lo := 0
	for i := 1; i <= len(a); i++ {
		prev, loPrev := row, lo
		row, lo = d[i], bd.start(i)
		jLo, jHi := max(i-bd.w, 1), min(i+bd.w, bd.m)
		head, tail := row[:jLo-lo], row[jHi+1-lo:]
		for k := range head {
			head[k] = inf
		}
		for k := range tail {
			tail[k] = inf
		}
		// Predecessors of (i, j): diagonal (i−1, j−1), upper (i−1, j) and
		// left (i, j−1). left is re-read from the row just written, not
		// carried in a register: that keeps the compiler's operand order
		// for c + best, and with it which NaN payload wins when both are
		// NaN, the same as the full-matrix loop's.
		bs := b[jLo-1 : jHi]
		diags := prev[jLo-1-loPrev : jHi-loPrev]
		diags = diags[:len(bs)]
		ups := prev[jLo-loPrev : jHi+1-loPrev]
		ups = ups[:len(bs)]
		lefts := row[jLo-1-lo : jHi-lo]
		lefts = lefts[:len(bs)]
		out := row[jLo-lo : jHi+1-lo]
		out = out[:len(bs)]
		ai := a[i-1]
		for t, bj := range bs {
			c := math.Abs(ai - bj)
			best := diags[t]
			if ups[t] < best {
				best = ups[t]
			}
			if lefts[t] < best {
				best = lefts[t]
			}
			out[t] = c + best
		}
	}
}

// AlignedRelError computes the paper's error metric: DTW-align the reference
// (polling) trace with the target (sampled/corrected) trace, then average the
// relative difference |target−ref|/max(|ref|, floor) over the warping path.
// The result is a fraction (0.40 ≡ 40% error).
func AlignedRelError(ref, target Series, window int, floor float64) (float64, error) {
	var al Aligner
	return al.AlignedRelError(ref, target, window, floor)
}

// AlignedRelError is the package-level AlignedRelError, aligned in the
// aligner's band buffer.
func (al *Aligner) AlignedRelError(ref, target Series, window int, floor float64) (float64, error) {
	_, path, err := al.dtw(ref, target, window)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, p := range path {
		den := math.Abs(ref[p.I])
		if den < floor {
			den = floor
		}
		sum += math.Abs(target[p.J]-ref[p.I]) / den
	}
	return sum / float64(len(path)), nil
}

// NormalizedError reproduces the normalization in §6.2: the
// polling-vs-polling run-pair baseline error is subtracted from the raw
// polling-vs-target error ("that way, we could correct for any OS-based
// nondeterminism in the result"), so like the paper we report the excess
// error over the baseline, floored at 0: max(raw − base, 0).
func NormalizedError(raw, base float64) float64 {
	e := raw - base
	if e < 0 {
		return 0
	}
	return e
}
