package main

import (
	"fmt"
	"math"

	"bayesperf/pkg/bayesperf"
)

// outcome is the output check of one run. Operations are the run's
// inference windows; a window fails when its inference did not converge or
// when any stitched series is non-finite over an interval it covers, and
// each failed check counts as one more failed operation.
type outcome struct {
	windows  int
	failed   int
	problems []string
}

// wantWindows is the engine's hop arithmetic: one window each time a full
// window has slid by hop intervals, plus one tail window over the last
// window's worth of intervals when the stream does not end on a hop.
func wantWindows(n, window, hop int) int {
	if n <= 0 {
		return 0
	}
	if n < window {
		return 1
	}
	w := (n-window)/hop + 1
	if (n-window)%hop != 0 {
		w++
	}
	return w
}

// check verifies one run's report against the stream it was fed. It never
// compares against a golden number: accuracy gates are relative (the
// corrected estimate against the naive and windowed baselines), so a
// reviewed change to the evaluation may still move the figures.
func check(rep *bayesperf.Report, cfg bayesperf.Config, n int) outcome {
	out := outcome{windows: rep.Windows}
	fail := func(format string, args ...any) {
		out.problems = append(out.problems, fmt.Sprintf(format, args...))
		out.failed++
	}
	if rep.Intervals != n {
		fail("report covers %d intervals, stream had %d", rep.Intervals, n)
	}
	if want := wantWindows(n, cfg.Window, cfg.Hop); rep.Windows != want {
		fail("report has %d windows, hop arithmetic gives %d", rep.Windows, want)
	}
	out.failed += rep.UnconvergedWindows

	s := rep.Stream
	if s == nil {
		fail("stream run returned no stitched series")
		return out
	}
	bad := make([]bool, n)
	for _, group := range [][][]float64{
		series(s.Corrected), series(s.CorrectedStd), series(s.WindowedRaw), series(s.NaiveRaw),
		series(s.DerivedCorrected), series(s.DerivedCorrectedStd), series(s.DerivedWindowedRaw), series(s.DerivedNaive),
	} {
		for _, xs := range group {
			if len(xs) != n {
				fail("a stitched series has %d intervals, stream had %d", len(xs), n)
				continue
			}
			for t, x := range xs {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					bad[t] = true
				}
			}
		}
	}
	if nf := nonFiniteWindows(bad, cfg.Window, cfg.Hop); nf > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d windows cover non-finite output", nf))
		out.failed += nf
	}
	if math.IsNaN(rep.PostRelStd) || rep.PostRelStd <= 0 {
		fail("posterior relative std %v is not positive", rep.PostRelStd)
	}

	if rep.HasTruth {
		// The CLI's exit gates for a streamed evaluation.
		if !(rep.CorrectedAligned < rep.NaiveAligned) {
			fail("corrected aligned error %.4g is not below naive %.4g", rep.CorrectedAligned, rep.NaiveAligned)
		}
		if !(rep.DerivedCorrectedAligned < rep.DerivedNaiveAligned) {
			fail("derived corrected aligned error %.4g is not below naive %.4g",
				rep.DerivedCorrectedAligned, rep.DerivedNaiveAligned)
		}
		if rep.DerivedCorrectedAligned > 1.02*rep.DerivedWindowedAligned {
			fail("derived corrected aligned error %.4g exceeds 1.02x windowed %.4g",
				rep.DerivedCorrectedAligned, rep.DerivedWindowedAligned)
		}
	}
	return out
}

// series converts the report's series slices to plain float slices.
func series[S ~[]float64](ss []S) [][]float64 {
	out := make([][]float64, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// nonFiniteWindows counts the windows that cover at least one bad interval:
// window k covers [k·hop, k·hop+window), and the tail window covers the
// last window's worth of intervals.
func nonFiniteWindows(bad []bool, window, hop int) int {
	n := len(bad)
	// prefix[t] counts bad intervals before t.
	prefix := make([]int, n+1)
	for t, b := range bad {
		prefix[t+1] = prefix[t]
		if b {
			prefix[t+1]++
		}
	}
	if prefix[n] == 0 {
		return 0
	}
	covers := func(lo, hi int) bool {
		lo, hi = max(lo, 0), min(hi, n)
		return prefix[hi] > prefix[lo]
	}
	count := 0
	if n < window {
		if covers(0, n) {
			count++
		}
		return count
	}
	for start := 0; start+window <= n; start += hop {
		if covers(start, start+window) {
			count++
		}
	}
	if (n-window)%hop != 0 && covers(n-window, n) {
		count++
	}
	return count
}
