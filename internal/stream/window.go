package stream

import (
	"math"

	"bayesperf/internal/measure"
	"bayesperf/internal/stats"
	"bayesperf/internal/uarch"
)

// eventRing holds one event's counted per-interval values inside the
// current window, with the running sums needed to re-derive the §4.2
// Student-t observation std in O(1) per slide: Σx and Σx² for the mean and
// the noise model, and the sum of squared successive differences (the
// mean-squared-successive-difference spread estimator) for the t std.
type eventRing struct {
	buf  []float64
	head int
	n    int
	sum  float64
	sq   float64
	ssd  float64
}

//bayesperf:hotpath
func (e *eventRing) push(x float64) {
	if e.n > 0 {
		d := x - e.buf[(e.head+e.n-1)%len(e.buf)]
		e.ssd += d * d
	}
	e.buf[(e.head+e.n)%len(e.buf)] = x
	e.n++
	e.sum += x
	e.sq += x * x
}

//bayesperf:hotpath
func (e *eventRing) pop() {
	first := e.buf[e.head]
	if e.n > 1 {
		d := e.buf[(e.head+1)%len(e.buf)] - first
		e.ssd -= d * d
	}
	e.head = (e.head + 1) % len(e.buf)
	e.n--
	e.sum -= first
	e.sq -= first * first
	if e.n == 0 {
		// Re-zero exactly so float drift cannot accumulate across an
		// event's long absences.
		e.sum, e.sq, e.ssd = 0, 0, 0
	}
}

// ordered appends the ring's values in arrival order to dst[:0].
func (e *eventRing) ordered(dst []float64) []float64 {
	dst = dst[:0]
	for i := 0; i < e.n; i++ {
		dst = append(dst, e.buf[(e.head+i)%len(e.buf)])
	}
	return dst
}

// Window is the sliding accumulator of the streaming engine: it ingests the
// last size intervals' multiplexed samples and derives, per event, the
// scaled window total and its Student-t observation std incrementally —
// each slide is O(live events), not O(window).
type Window struct {
	cat     *uarch.Catalog
	size    int
	samples []measure.IntervalSample // ring of the intervals in the window
	head    int
	n       int
	ev      []eventRing
	scratch []float64 // Gumbel-rejection snapshot buffer
}

// NewWindow builds an empty window accumulator of the given span.
func NewWindow(cat *uarch.Catalog, size int) *Window {
	w := &Window{
		cat:     cat,
		size:    size,
		samples: make([]measure.IntervalSample, size),
		ev:      make([]eventRing, cat.NumEvents()),
		scratch: make([]float64, 0, size),
	}
	for i := range w.ev {
		w.ev[i].buf = make([]float64, size)
	}
	return w
}

// Len returns the number of intervals currently in the window.
func (w *Window) Len() int { return w.n }

// Span returns the half-open interval range [start, end) the window covers.
func (w *Window) Span() (start, end int) {
	if w.n == 0 {
		return 0, 0
	}
	start = w.samples[w.head].T
	return start, start + w.n
}

// finite reports whether x is a usable reading (neither NaN nor ±Inf).
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Push slides the window forward by one interval: the oldest interval's
// samples are retired (once the window is full) and the new interval's
// counted values are folded in. Non-finite readings (counter corruption)
// never enter the rings: a single NaN — or an Inf, whose eviction leaves
// Inf − Inf = NaN behind — would permanently poison the running sums long
// after the reading itself slid out of the window. The skip is mirrored
// on the eviction side so push/pop stay symmetric.
//
//bayesperf:hotpath
func (w *Window) Push(s measure.IntervalSample) {
	if w.n == w.size {
		old := w.samples[w.head]
		for i, id := range old.Events {
			if finite(old.Values[i]) {
				w.ev[id].pop()
			}
		}
		w.head = (w.head + 1) % w.size
		w.n--
	}
	w.samples[(w.head+w.n)%w.size] = s
	w.n++
	for i, id := range s.Events {
		if finite(s.Values[i]) {
			w.ev[id].push(s.Values[i])
		}
	}
}

// lastIsOutlier reports whether the most recently pushed value of the
// event sits above the Gumbel q-quantile fitted (by moments, from the
// ring's running sums) to the event's current in-window samples — the O(1)
// streaming form of stats.GumbelFilterMax's test, used to decide whether a
// live sample deserves full noise precision in the stitched trace.
func (w *Window) lastIsOutlier(id uarch.EventID, q float64) bool {
	er := &w.ev[id]
	if er.n < 4 || q <= 0 || q >= 1 {
		return false
	}
	n := float64(er.n)
	variance := (er.sq - er.sum*er.sum/n) / (n - 1)
	if variance <= 0 {
		return false
	}
	mu, beta := stats.GumbelFitFromMoments(er.sum/n, math.Sqrt(variance))
	last := er.buf[(er.head+er.n-1)%len(er.buf)]
	return last > stats.GumbelQuantile(q, mu, beta)
}

// windowJob is an immutable snapshot of one window's observations, handed
// to a pool worker for inference.
type windowJob struct {
	index      int
	start, end int
	obsMean    []float64 // extrapolated window total per event
	obsStd     []float64
	// disp is the within-window per-interval dispersion (plain sample
	// std, rate units): how far one interval's value strays from the
	// window mean. Unlike the successive-difference spread behind obsStd
	// (which cancels slow phase structure on purpose), disp must keep it:
	// a window straddling a phase boundary is a poor predictor of any
	// single interval and its large sample variance is what says so. The
	// stitcher adds disp² to the obs variance when predicting an interval
	// from a window (law of total variance), which both lets a live
	// sample outweigh the window at its own interval and shifts weight
	// away from boundary-straddling windows.
	disp     []float64
	observed []bool
	// rejected is the number of readings the Gumbel outlier filter dropped
	// while deriving this snapshot (0 unless MuxConfig.GumbelReject).
	rejected int
}

// snapshot derives each event's observation from the window's running
// sums, mirroring the batch simulator's §4.2 model: inverse-coverage
// extrapolated total, Student-t std from the successive-difference spread
// (noise-only std at full coverage), optional Gumbel outlier rejection,
// and the same std floors. The returned job owns its slices.
func (w *Window) snapshot(index int, mux measure.MuxConfig) windowJob {
	ne := w.cat.NumEvents()
	start, end := w.Span()
	job := windowJob{
		index:    index,
		start:    start,
		end:      end,
		obsMean:  make([]float64, ne),
		obsStd:   make([]float64, ne),
		disp:     make([]float64, ne),
		observed: make([]bool, ne),
	}
	intervals := w.n
	for id := range w.ev {
		er := &w.ev[id]
		if er.n == 0 {
			// Never counted in this window — including the case where
			// every reading was corrupted (non-finite values are dropped
			// in Push): the invariants infer the event.
			continue
		}
		n, sum, sq, ssd := er.n, er.sum, er.sq, er.ssd
		if mux.GumbelReject {
			// The rings hold only finite values, so the filter always
			// keeps at least one reading.
			kept, rejected := stats.GumbelFilterMax(er.ordered(w.scratch), mux.RejectQuantile())
			job.rejected += rejected
			if rejected > 0 {
				n, sum, sq, ssd = len(kept), 0, 0, 0
				for i, x := range kept {
					sum += x
					sq += x * x
					if i > 0 {
						d := x - kept[i-1]
						ssd += d * d
					}
				}
			}
		}
		mean := sum / float64(n)
		total := mean * float64(intervals)
		if !finite(total) {
			// Finite readings whose total overflowed carry no usable
			// value either: leave the event to the invariants.
			continue
		}

		var std, disp float64
		if n >= 2 {
			disp = math.Sqrt(math.Max(sq-sum*sum/float64(n), 0) / float64(n-1))
		} else {
			disp = math.Abs(mean) // a lone sample: stay maximally vague
		}
		// Floor disp the same way obsStd is floored below: a lone zero
		// sample (or a constant run of zeros) would otherwise leave
		// disp = 0 and let the stitcher treat the window as a perfect
		// predictor of every interval it covers.
		if floor := mux.StdFloorFrac * math.Abs(mean); disp < floor {
			disp = floor
		}
		if disp == 0 { //bayesvet:bitwise exact-zero sentinel for a constant window
			disp = 1 // all-zero event: unit count dispersion
		}
		switch {
		case n < 2:
			// A lone sample carries no spread information: claim 100%
			// relative uncertainty on the extrapolated total.
			std = math.Abs(total)
		case n == intervals:
			// Full coverage: the total is a straight sum, so only the
			// per-interval measurement noise remains: Σ(noise·xᵢ)².
			std = mux.NoiseFrac * math.Sqrt(math.Max(sq, 0))
		default:
			spread := math.Sqrt(math.Max(ssd, 0) / (2 * float64(n-1)))
			std = measure.TObsStd(spread, n, intervals)
		}
		if floor := mux.StdFloorFrac * math.Abs(total); std < floor {
			std = floor
		}
		if std == 0 { //bayesvet:bitwise exact-zero sentinel for a constant window
			std = 1 // all-zero event: unit count uncertainty
		}
		job.obsMean[id] = total
		job.obsStd[id] = std
		job.disp[id] = disp
		job.observed[id] = true
	}
	return job
}
