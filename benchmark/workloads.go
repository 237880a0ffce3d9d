package main

import (
	"fmt"
	"math"

	"bayesperf/internal/measure"
	"bayesperf/pkg/bayesperf"
)

// zenCatalog is the JSON catalog the decide workload loads, relative to the
// repository root the benchmark runs from.
const zenCatalog = "examples/catalogs/zen.json"

// workers pins the engine's worker pool for every workload, so a run does
// not depend on the host's core count.
const workers = 2

// workload is one benchmark workload: its catalog, the inputs the harness
// generates from the seed, and the session and source each run is built
// from.
type workload interface {
	// load resolves the workload's catalog: the uarch layer's work.
	load() (*bayesperf.Catalog, error)
	// prepare generates the inputs the harness owns from the seed. It runs
	// once, outside every timer; the ground-truth part is traced as
	// measure.truth.
	prepare(seed uint64, tr *tracer, parent int) error
	// setup builds the session and a fresh source for one run. The
	// benchmark times it as setup_s. reg is nil on untraced runs.
	setup(reg *bayesperf.MetricsRegistry, tr *tracer, parent int) (*bayesperf.Session, bayesperf.Source, error)
	// truth returns the ground truth the harness scores a run against,
	// when the run's source does not expose it.
	truth() *bayesperf.Trace
	// length is the number of intervals one run streams.
	length() int
}

// newWorkload returns the named workload with its stream length divided
// by div (1 for the full length, 2 for the traced run's half length), or
// nil for an unknown name.
func newWorkload(name string, div int) workload {
	switch name {
	case "agent":
		return &agent{wl: bayesperf.DefaultWorkload(40000 / div)}
	case "decide":
		return &decide{wl: bayesperf.DefaultWorkload(40000 / div)}
	case "evaluate":
		return &evaluate{wl: bayesperf.DefaultWorkload(1000 / div)}
	}
	return nil
}

// loadSkylake resolves the registered skylake catalog.
func loadSkylake() (*bayesperf.Catalog, error) {
	spec, ok := bayesperf.LookupCatalog("skylake")
	if !ok {
		return nil, fmt.Errorf("catalog skylake is not registered")
	}
	return spec.Catalog()
}

// agent replays a pre-recorded round-robin skylake stream through a source
// with no ground truth and no length, as a live agent sees its counters.
type agent struct {
	wl  bayesperf.Workload
	cat *bayesperf.Catalog
	tr  *bayesperf.Trace
	ivs []bayesperf.Interval
}

func (a *agent) load() (*bayesperf.Catalog, error) { return loadSkylake() }

func (a *agent) prepare(seed uint64, tr *tracer, parent int) error {
	cat, err := loadSkylake()
	if err != nil {
		return err
	}
	id := tr.start("measure.truth", parent)
	src := bayesperf.NewSimSource(cat, a.wl, bayesperf.DefaultMuxConfig(), seed)
	tr.end(id)
	a.cat, a.tr = cat, src.Truth()
	a.ivs = make([]bayesperf.Interval, 0, src.Intervals())
	for {
		iv, ok := src.Next()
		if !ok {
			break
		}
		a.ivs = append(a.ivs, iv)
	}
	return nil
}

func (a *agent) setup(reg *bayesperf.MetricsRegistry, tr *tracer, parent int) (*bayesperf.Session, bayesperf.Source, error) {
	id := tr.start("uarch.load", parent)
	cat, err := loadSkylake()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.start("bayesperf.new", parent)
	sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithWorkers(workers),
		bayesperf.WithMetrics(reg))
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	return sess, &replay{cat: a.cat, ivs: a.ivs}, nil
}

func (a *agent) truth() *bayesperf.Trace { return a.tr }
func (a *agent) length() int             { return a.wl.Intervals() }

// decide streams the JSON zen catalog from a live sampler under the
// adaptive scheduler with covariance-aware derived stds: the engine flushes
// and reprioritises the multiplexing slots every epoch.
type decide struct {
	wl        bayesperf.Workload
	tr        *bayesperf.Trace
	noiseSeed uint64
}

func (d *decide) load() (*bayesperf.Catalog, error) {
	spec, err := bayesperf.LoadSpecFile(zenCatalog)
	if err != nil {
		return nil, err
	}
	return spec.Catalog()
}

func (d *decide) prepare(seed uint64, tr *tracer, parent int) error {
	cat, err := d.load()
	if err != nil {
		return err
	}
	if err := bayesperf.ValidateModels(cat); err != nil {
		return err
	}
	id := tr.start("measure.truth", parent)
	d.tr = bayesperf.GroundTruth(cat, d.wl, seed)
	tr.end(id)
	d.noiseSeed = seed ^ 0x9e3779b97f4a7c15
	return nil
}

func (d *decide) setup(reg *bayesperf.MetricsRegistry, tr *tracer, parent int) (*bayesperf.Session, bayesperf.Source, error) {
	id := tr.start("bayesperf.new", parent)
	sess, err := bayesperf.New(bayesperf.WithCatalogFile(zenCatalog), bayesperf.WithCovariance(true),
		bayesperf.WithWorkers(workers), bayesperf.WithMetrics(reg))
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	src := bayesperf.NewTraceSource(d.tr, bayesperf.DefaultMuxConfig(), d.noiseSeed)
	src.SetScheduler(measure.NewAdaptive(sess.Catalog(), sess.Config().Window))
	return sess, live{src}, nil
}

func (d *decide) truth() *bayesperf.Trace { return d.tr }
func (d *decide) length() int             { return d.wl.Intervals() }

// evaluate is the §6.2 report: a truth-exposing simulated skylake source
// with derived-event evaluation, whose DTW alignments dominate the run.
type evaluate struct {
	wl   bayesperf.Workload
	seed uint64
}

func (e *evaluate) load() (*bayesperf.Catalog, error) { return loadSkylake() }

func (e *evaluate) prepare(seed uint64, _ *tracer, _ int) error {
	e.seed = seed
	return nil
}

func (e *evaluate) setup(reg *bayesperf.MetricsRegistry, tr *tracer, parent int) (*bayesperf.Session, bayesperf.Source, error) {
	id := tr.start("uarch.load", parent)
	cat, err := loadSkylake()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.start("bayesperf.new", parent)
	sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithDerived(true),
		bayesperf.WithWorkers(workers), bayesperf.WithMetrics(reg))
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.start("measure.truth", parent)
	src := bayesperf.NewSimSource(cat, e.wl, bayesperf.DefaultMuxConfig(), e.seed)
	tr.end(id)
	return sess, src, nil
}

// truth is nil: the source exposes its truth, and the session scores the
// run against it.
func (e *evaluate) truth() *bayesperf.Trace { return nil }
func (e *evaluate) length() int             { return e.wl.Intervals() }

// accuracy returns the corrected and derived errors, in percent, the
// metrics report for a run. Truth-exposing runs report the session's own
// DTW-aligned figures. Runs without truth in the source are scored here,
// outside every timer, as the mean absolute relative error of the stitched
// per-interval posterior series against the harness's ground truth.
func accuracy(rep *bayesperf.Report, cat *bayesperf.Catalog, truth *bayesperf.Trace) (corr, derived float64) {
	if rep.HasTruth {
		return 100 * rep.CorrectedAligned, 100 * rep.DerivedCorrectedAligned
	}
	for id := range truth.Series {
		corr += mape(truth.Series[id], rep.Stream.Corrected[id], 1)
	}
	corr /= float64(len(truth.Series))
	for di := range cat.Derived {
		d := &cat.Derived[di]
		in := make([]float64, len(d.Inputs))
		ref := make([]float64, len(truth.Series[0]))
		for t := range ref {
			for i, id := range d.Inputs {
				in[i] = truth.Series[id][t]
			}
			ref[t] = d.Eval(in)
		}
		derived += mape(ref, rep.Stream.DerivedCorrected[di], 1e-3)
	}
	if len(cat.Derived) > 0 {
		derived /= float64(len(cat.Derived))
	}
	return 100 * corr, 100 * derived
}

// mape is the mean of |got−want|/max(|want|, floor) over the intervals.
func mape(want, got []float64, floor float64) float64 {
	var sum float64
	for t := range want {
		sum += math.Abs(got[t]-want[t]) / math.Max(math.Abs(want[t]), floor)
	}
	return sum / float64(len(want))
}
