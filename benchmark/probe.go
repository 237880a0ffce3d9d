package main

import (
	"time"

	"bayesperf/internal/measure"
	"bayesperf/pkg/bayesperf"
)

// probe wraps a run's Source and timestamps the engine's calls to Next. It
// is the only place the benchmark sees inside RunStream, and it sees only
// the public boundary: the time the source hands an interval over and the
// time the engine asks for the next one.
//
// Untraced, it reads the clock twice per decision point: when the
// interval that ends an epoch is handed over and when the engine next
// asks, which is the decision latency (on adaptive runs the engine flushes
// its windows and reprioritises the multiplexing slots in between).
// Traced, it reads the clock around every call.
type probe struct {
	src   bayesperf.Source
	epoch int
	n     int       // intervals handed over
	last  time.Time // when the previous Next returned
	eos   time.Time // when the source reported end of stream

	decide []float64 // µs from a decision point's interval to the next Next

	// Traced runs only.
	tr         *tracer
	parent     int           // span the per-call spans hang from
	detail     bool          // record one span per call, not only the totals
	gaps       []float64     // ns from each Next's return to the next call
	sampleBusy time.Duration // time spent inside the wrapped source's Next
}

// newProbe wraps src for a stream of n intervals, allocating its samples
// before the run rather than during it. The decision points are the ends of
// the adaptive scheduler's epochs, where the engine flushes and
// reprioritises the slots; under any other scheduler the engine has no
// epoch work, and every interval is a decision point.
func newProbe(src bayesperf.Source, n int, tr *tracer, detail bool) *probe {
	p := &probe{src: src, epoch: 1, tr: tr, parent: -1, detail: detail}
	if ad, ok := p.Scheduler().(*measure.AdaptiveScheduler); ok {
		p.epoch = ad.EpochLen()
	}
	p.decide = make([]float64, 0, n/p.epoch)
	if tr != nil {
		p.gaps = make([]float64, 0, n)
		if detail {
			tr.reserve(2 * n)
		}
	}
	return p
}

// Catalog reports the wrapped source's catalog.
func (p *probe) Catalog() *bayesperf.Catalog { return p.src.Catalog() }

// Scheduler exposes the wrapped source's scheduler, so an adaptive run
// still closes its feedback loop through the probe.
func (p *probe) Scheduler() bayesperf.Scheduler {
	if s, ok := p.src.(interface{ Scheduler() bayesperf.Scheduler }); ok {
		return s.Scheduler()
	}
	return nil
}

// Next forwards to the wrapped source and timestamps the call.
func (p *probe) Next() (bayesperf.Interval, bool) {
	traced := p.tr != nil
	boundary := p.n > 0 && p.n%p.epoch == 0
	var in time.Time
	if traced || boundary {
		in = time.Now()
		if boundary {
			p.decide = append(p.decide, float64(in.Sub(p.last))/1e3)
		}
		if traced && p.n > 0 {
			p.gaps = append(p.gaps, float64(in.Sub(p.last)))
			if p.detail {
				p.tr.record("stream.ingest", p.parent, p.last, in)
			}
		}
	}
	iv, ok := p.src.Next()
	if !ok {
		p.eos = time.Now()
		return iv, false
	}
	p.n++
	if traced || p.n%p.epoch == 0 {
		out := time.Now()
		p.last = out
		if traced {
			p.sampleBusy += out.Sub(in)
			if p.detail {
				p.tr.record("measure.sample", p.parent, in, out)
			}
		}
	}
	return iv, true
}

// truthProbe is a probe over a source that exposes its ground truth and
// length, so the session evaluates the run exactly as it would the bare
// source.
type truthProbe struct {
	*probe
	ts *bayesperf.SimSource
}

// Truth returns the wrapped source's ground truth.
func (p truthProbe) Truth() *bayesperf.Trace { return p.ts.Truth() }

// Intervals returns the wrapped source's length.
func (p truthProbe) Intervals() int { return p.ts.Intervals() }

// replay serves a pre-recorded interval stream. It has no Truth and no
// Intervals, like a live agent's reader.
type replay struct {
	cat *bayesperf.Catalog
	ivs []bayesperf.Interval
	i   int
}

// Catalog reports the catalog the recording is expressed in.
func (r *replay) Catalog() *bayesperf.Catalog { return r.cat }

// Next returns the next recorded interval.
func (r *replay) Next() (bayesperf.Interval, bool) {
	if r.i >= len(r.ivs) {
		return bayesperf.Interval{}, false
	}
	r.i++
	return r.ivs[r.i-1], true
}

// live hides a sampler's ground truth and length, so the session sees a
// live counter reader that still exposes its (adaptive) scheduler.
type live struct{ s *bayesperf.SimSource }

// Catalog reports the sampler's catalog.
func (l live) Catalog() *bayesperf.Catalog { return l.s.Catalog() }

// Next samples the next interval.
func (l live) Next() (bayesperf.Interval, bool) { return l.s.Next() }

// Scheduler returns the scheduler driving the sampler.
func (l live) Scheduler() bayesperf.Scheduler { return l.s.Scheduler() }
