package bayesperf_test

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
	"bayesperf/pkg/bayesperf"
)

const zenSpecPath = "../../examples/catalogs/zen.json"

// TestBuilderAndSpecSessionsBitIdentical is the acceptance criterion at the
// Session level: the builder-based Skylake catalog and the registry's
// spec-loaded one produce bit-identical batch posteriors and bit-identical
// streamed corrected series for the same seed.
func TestBuilderAndSpecSessionsBitIdentical(t *testing.T) {
	builder := uarch.Skylake()
	spec, ok := bayesperf.LookupCatalog("skylake")
	if !ok {
		t.Fatal("skylake not in the registry")
	}
	fromSpec := spec.MustCatalog()
	wl := bayesperf.DefaultWorkload(50)
	mux := bayesperf.DefaultMuxConfig()

	runBoth := func(run func(cat *bayesperf.Catalog) *bayesperf.Report) (*bayesperf.Report, *bayesperf.Report) {
		return run(builder), run(fromSpec)
	}

	a, b := runBoth(func(cat *bayesperf.Catalog) *bayesperf.Report {
		sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithMux(mux))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.RunBatch(bayesperf.NewSimSource(cat, wl, mux, 42))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	})
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].Mean != b.Events[i].Mean || a.Events[i].Std != b.Events[i].Std {
			t.Errorf("batch posterior differs for %s: %v±%v vs %v±%v", a.Events[i].Name,
				a.Events[i].Mean, a.Events[i].Std, b.Events[i].Mean, b.Events[i].Std)
		}
	}
	for i := range a.Derived {
		if a.Derived[i].Mean != b.Derived[i].Mean || a.Derived[i].Std != b.Derived[i].Std {
			t.Errorf("derived posterior differs for %s", a.Derived[i].Name)
		}
	}

	sa, sb := runBoth(func(cat *bayesperf.Catalog) *bayesperf.Report {
		sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithMux(mux),
			bayesperf.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.RunStream(bayesperf.NewSimSource(cat, wl, mux, 42))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	})
	for id := range sa.Stream.Corrected {
		for ti := range sa.Stream.Corrected[id] {
			if sa.Stream.Corrected[id][ti] != sb.Stream.Corrected[id][ti] {
				t.Fatalf("stream corrected series differs at event %d interval %d", id, ti)
			}
		}
	}
}

// TestZenJSONEndToEnd: the catalog defined purely in JSON — no Go changes —
// runs end to end through Session.RunStream with the corrected-beats-naive
// verdict holding, and through RunBatch with positive derived stds.
func TestZenJSONEndToEnd(t *testing.T) {
	spec, err := bayesperf.LoadSpecFile(zenSpecPath)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bayesperf.New(
		bayesperf.WithSpec(spec),
		bayesperf.WithDerived(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	cat := sess.Catalog()
	if err := measure.ValidateModels(cat); err != nil {
		t.Fatal(err)
	}
	wl := bayesperf.DefaultWorkload(100)
	mux := bayesperf.DefaultMuxConfig()

	rep, err := sess.RunStream(bayesperf.NewSimSource(cat, wl, mux, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasTruth || !rep.Converged {
		t.Fatalf("zen stream run: truth=%v converged=%v", rep.HasTruth, rep.Converged)
	}
	if !rep.Improved() {
		t.Errorf("zen corrected aligned error %.4f%% not below naive %.4f%%",
			100*rep.CorrectedAligned, 100*rep.NaiveAligned)
	}
	if len(rep.DerivedStream) != len(cat.Derived) {
		t.Fatalf("%d derived stream rows, want %d", len(rep.DerivedStream), len(cat.Derived))
	}
	for _, row := range rep.DerivedStream {
		if row.MinPostStd <= 0 {
			t.Errorf("%s: min per-interval posterior std %v, want > 0", row.Name, row.MinPostStd)
		}
	}

	batch, err := sess.RunBatch(bayesperf.NewSimSource(cat, wl, mux, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Improved() {
		t.Errorf("zen batch corrected err %.4f%% not below raw %.4f%%",
			100*batch.CorrMeanErr, 100*batch.RawMeanErr)
	}
	for _, d := range batch.Derived {
		if d.Std <= 0 {
			t.Errorf("%s: batch posterior std %v, want > 0", d.Name, d.Std)
		}
	}
}

const neoverseSpecPath = "../../examples/catalogs/neoverse.json"

// TestNeoverseJSONEndToEnd runs the ARM Neoverse-like JSON catalog through
// the whole pipeline alongside zen's test, with the compile/execute
// additions switched on: a wide window batch and clique-covariance-aware
// derived stds. The catalog must form ≥4 multiplex groups and both run
// modes must beat their raw baselines.
func TestNeoverseJSONEndToEnd(t *testing.T) {
	spec, err := bayesperf.LoadSpecFile(neoverseSpecPath)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bayesperf.New(
		bayesperf.WithSpec(spec),
		bayesperf.WithDerived(true),
		bayesperf.WithBatch(16),
		bayesperf.WithCovariance(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	cat := sess.Catalog()
	if err := measure.ValidateModels(cat); err != nil {
		t.Fatal(err)
	}
	wl := bayesperf.DefaultWorkload(100)
	mux := bayesperf.DefaultMuxConfig()

	rep, err := sess.RunStream(bayesperf.NewSimSource(cat, wl, mux, 42))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups < 4 {
		t.Fatalf("neoverse catalog forms %d multiplex groups, want >= 4", rep.Groups)
	}
	if !rep.HasTruth || !rep.Converged {
		t.Fatalf("neoverse stream run: truth=%v converged=%v", rep.HasTruth, rep.Converged)
	}
	if !rep.Improved() {
		t.Errorf("neoverse corrected aligned error %.4f%% not below naive %.4f%%",
			100*rep.CorrectedAligned, 100*rep.NaiveAligned)
	}
	if len(rep.DerivedStream) != len(cat.Derived) {
		t.Fatalf("%d derived stream rows, want %d", len(rep.DerivedStream), len(cat.Derived))
	}
	for _, row := range rep.DerivedStream {
		if row.MinPostStd <= 0 {
			t.Errorf("%s: min per-interval posterior std %v, want > 0", row.Name, row.MinPostStd)
		}
	}

	batch, err := sess.RunBatch(bayesperf.NewSimSource(cat, wl, mux, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Improved() {
		t.Errorf("neoverse batch corrected err %.4f%% not below raw %.4f%%",
			100*batch.CorrMeanErr, 100*batch.RawMeanErr)
	}
	for _, d := range batch.Derived {
		if d.Std <= 0 {
			t.Errorf("%s: batch posterior std %v, want > 0", d.Name, d.Std)
		}
	}
}

// TestSessionBatchWidthInvariance is the WithBatch contract at the API
// surface: any batch width yields a bit-identical streamed report.
func TestSessionBatchWidthInvariance(t *testing.T) {
	cat := uarch.Skylake()
	wl := bayesperf.DefaultWorkload(40)
	mux := bayesperf.DefaultMuxConfig()
	run := func(batch int) *bayesperf.Report {
		sess, err := bayesperf.New(
			bayesperf.WithCatalog(cat),
			bayesperf.WithMux(mux),
			bayesperf.WithBatch(batch),
			bayesperf.WithCovariance(true),
			bayesperf.WithDerived(true),
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.RunStream(bayesperf.NewSimSource(cat, wl, mux, 11))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(1)
	for _, batch := range []int{4, 32} {
		rep := run(batch)
		if rep.CorrectedAligned != base.CorrectedAligned ||
			rep.WindowedAligned != base.WindowedAligned ||
			rep.DerivedCorrectedAligned != base.DerivedCorrectedAligned {
			t.Errorf("batch=%d: aligned errors diverged from batch=1", batch)
		}
		for id := range base.Stream.Corrected {
			for ti := range base.Stream.Corrected[id] {
				if rep.Stream.Corrected[id][ti] != base.Stream.Corrected[id][ti] {
					t.Fatalf("batch=%d: corrected[%d][%d] diverged", batch, id, ti)
				}
			}
		}
	}
}

// TestStreamReportDeterministicAcrossWorkers: the report fans its DTW
// alignments out over the session's workers, and must reduce them into a
// bit-identical report for any worker count.
func TestStreamReportDeterministicAcrossWorkers(t *testing.T) {
	cat := uarch.Skylake()
	wl := bayesperf.DefaultWorkload(60)
	mux := bayesperf.DefaultMuxConfig()
	run := func(workers int) *bayesperf.Report {
		sess, err := bayesperf.New(
			bayesperf.WithCatalog(cat),
			bayesperf.WithMux(mux),
			bayesperf.WithDerived(true),
			bayesperf.WithWorkers(workers),
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.RunStream(bayesperf.NewSimSource(cat, wl, mux, 9))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	bits := math.Float64bits
	one, four := run(1), run(4)
	if len(one.DerivedStream) == 0 {
		t.Fatal("no derived stream rows to compare")
	}
	for _, f := range []struct {
		name      string
		one, four float64
	}{
		{"NaiveAligned", one.NaiveAligned, four.NaiveAligned},
		{"WindowedAligned", one.WindowedAligned, four.WindowedAligned},
		{"CorrectedAligned", one.CorrectedAligned, four.CorrectedAligned},
		{"DerivedNaiveAligned", one.DerivedNaiveAligned, four.DerivedNaiveAligned},
		{"DerivedWindowedAligned", one.DerivedWindowedAligned, four.DerivedWindowedAligned},
		{"DerivedCorrectedAligned", one.DerivedCorrectedAligned, four.DerivedCorrectedAligned},
	} {
		if bits(f.one) != bits(f.four) {
			t.Errorf("%s: workers=1 %v, workers=4 %v", f.name, f.one, f.four)
		}
	}
	if len(four.DerivedStream) != len(one.DerivedStream) {
		t.Fatalf("DerivedStream rows: workers=1 %d, workers=4 %d", len(one.DerivedStream), len(four.DerivedStream))
	}
	for i, a := range one.DerivedStream {
		b := four.DerivedStream[i]
		if a.Name != b.Name ||
			bits(a.NaiveAligned) != bits(b.NaiveAligned) ||
			bits(a.WindowedAligned) != bits(b.WindowedAligned) ||
			bits(a.CorrectedAligned) != bits(b.CorrectedAligned) ||
			bits(a.MeanPostStd) != bits(b.MeanPostStd) ||
			bits(a.MinPostStd) != bits(b.MinPostStd) {
			t.Errorf("DerivedStream[%d]: workers=1 %+v, workers=4 %+v", i, a, b)
		}
	}
}

// TestSessionCovarianceTightensCoupledStd: WithCovariance must change only
// the derived stds whose inputs share an invariant — and on the
// sum-coupled Branch_Misp_Rate it must not increase the reported batch
// std, while every mean stays put.
func TestSessionCovarianceTightensCoupledStd(t *testing.T) {
	cat := uarch.Skylake()
	wl := bayesperf.DefaultWorkload(60)
	mux := bayesperf.DefaultMuxConfig()
	run := func(cov bool) *bayesperf.Report {
		sess, err := bayesperf.New(
			bayesperf.WithCatalog(cat),
			bayesperf.WithMux(mux),
			bayesperf.WithCovariance(cov),
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.RunBatch(bayesperf.NewSimSource(cat, wl, mux, 42))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	diag := run(false)
	cov := run(true)
	changed := false
	for i := range diag.Derived {
		if cov.Derived[i].Mean != diag.Derived[i].Mean {
			t.Errorf("%s: covariance mode changed the posterior mean", diag.Derived[i].Name)
		}
		if cov.Derived[i].Std != diag.Derived[i].Std {
			changed = true
		}
		if cov.Derived[i].Std <= 0 {
			t.Errorf("%s: covariance-aware std %v, want > 0", cov.Derived[i].Name, cov.Derived[i].Std)
		}
		if diag.Derived[i].Name == "IPC" && cov.Derived[i].Std != diag.Derived[i].Std {
			t.Errorf("IPC inputs share no invariant on Skylake; std must not change")
		}
		// branch_breakdown couples misp positively with branches (the
		// sum), so the ratio's covariance-aware std must come in at or
		// below the diagonal — a sign flip in the plumbing would widen it.
		if diag.Derived[i].Name == "Branch_Misp_Rate" && cov.Derived[i].Std >= diag.Derived[i].Std {
			t.Errorf("Branch_Misp_Rate covariance-aware std %v not below diagonal %v",
				cov.Derived[i].Std, diag.Derived[i].Std)
		}
	}
	if !changed {
		t.Error("covariance mode changed no derived std at all")
	}
}

// TestWithBatchRejectsNegative: the option surface validates its input.
func TestWithBatchRejectsNegative(t *testing.T) {
	if _, err := bayesperf.New(bayesperf.WithBatch(-1)); err == nil {
		t.Error("WithBatch(-1) accepted")
	}
}

// TestSamplerIsASource: a bare measure.Sampler is the second shipped Source
// implementation; streaming it through a Session produces exactly the
// SimSource run (same trace, same seed, same scheduler).
func TestSamplerIsASource(t *testing.T) {
	cat := uarch.Skylake()
	wl := bayesperf.DefaultWorkload(40)
	mux := bayesperf.DefaultMuxConfig()

	sim := bayesperf.NewSimSource(cat, wl, mux, 7)
	sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithMux(mux))
	if err != nil {
		t.Fatal(err)
	}
	simRep, err := sess.RunStream(sim)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the identical stream as a raw Sampler (same seed discipline
	// as NewSimSource).
	r := rng.New(7)
	tr := measure.GroundTruth(cat, wl, r.Split())
	smp := measure.NewSampler(tr, mux, measure.NewRoundRobin(cat), rng.New(r.Split().Uint64()))

	sess2, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithMux(mux))
	if err != nil {
		t.Fatal(err)
	}
	smpRep, err := sess2.RunStream(smp)
	if err != nil {
		t.Fatal(err)
	}
	if !smpRep.HasTruth {
		t.Error("sampler source did not expose ground truth")
	}
	if smpRep.CorrectedAligned != simRep.CorrectedAligned || smpRep.Windows != simRep.Windows {
		t.Errorf("sampler-source run differs from sim-source run: %v/%d vs %v/%d",
			smpRep.CorrectedAligned, smpRep.Windows, simRep.CorrectedAligned, simRep.Windows)
	}
}

// TestSessionAdoptsSourceCatalog: a catalog-less session binds to the
// source's catalog; a bound session rejects mismatched sources.
func TestSessionAdoptsSourceCatalog(t *testing.T) {
	wl := bayesperf.DefaultWorkload(20)
	mux := bayesperf.DefaultMuxConfig()

	sess, err := bayesperf.New()
	if err != nil {
		t.Fatal(err)
	}
	src := bayesperf.NewSimSource(uarch.Power9(), wl, mux, 3)
	rep, err := sess.RunBatch(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arch != "ppc64-power9" || sess.Catalog() == nil {
		t.Errorf("session did not adopt the source catalog (arch %q)", rep.Arch)
	}

	other := bayesperf.NewSimSource(uarch.Skylake(), wl, mux, 3)
	if _, err := sess.RunBatch(other); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("mismatched source accepted: %v", err)
	}
}

// TestSessionSchedulerOption: WithScheduler(Adaptive) closes the feedback
// loop (slot moves happen) and reports the adaptive telemetry.
func TestSessionSchedulerOption(t *testing.T) {
	cat := uarch.Skylake()
	wl := bayesperf.DefaultWorkload(100)
	mux := bayesperf.DefaultMuxConfig()

	sess, err := bayesperf.New(
		bayesperf.WithCatalog(cat),
		bayesperf.WithMux(mux),
		bayesperf.WithScheduler(bayesperf.Adaptive),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.RunStream(bayesperf.NewSimSource(cat, wl, mux, 42))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SlotMoves == 0 {
		t.Error("adaptive session made no slot moves")
	}
	if rep.Stream.Reprioritizations == 0 {
		t.Error("adaptive session never reprioritized")
	}
}

// TestSessionOptionErrors: invalid options fail at New, not at run time.
func TestSessionOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		opt  bayesperf.Option
	}{
		{"nil catalog", bayesperf.WithCatalog(nil)},
		{"negative noise", bayesperf.WithNoise(-0.5)},
		{"unknown scheduler", bayesperf.WithScheduler(bayesperf.SchedulerKind(99))},
		{"missing catalog file", bayesperf.WithCatalogFile("/no/such/file.json")},
	}
	for _, tc := range cases {
		if _, err := bayesperf.New(tc.opt); err == nil {
			t.Errorf("%s: New accepted the option", tc.name)
		}
	}
}

// TestSessionRejectsMismatchedMux: a simulated source sampling under a
// different observation model than the session's is an error, not a silent
// mis-weighting of every estimate.
func TestSessionRejectsMismatchedMux(t *testing.T) {
	cat := uarch.Skylake()
	wl := bayesperf.DefaultWorkload(20)
	sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithNoise(0.05))
	if err != nil {
		t.Fatal(err)
	}
	src := bayesperf.NewSimSource(cat, wl, bayesperf.DefaultMuxConfig(), 3) // 1% noise
	if _, err := sess.RunBatch(src); err == nil || !strings.Contains(err.Error(), "observation model") {
		t.Errorf("diverging mux accepted: %v", err)
	}
}

// TestStreamDerivedUsesSessionCatalog: a session bound to a spec with a
// trimmed derived section must evaluate (and size) the derived stream rows
// from its own catalog, not the source's richer one.
func TestStreamDerivedUsesSessionCatalog(t *testing.T) {
	spec, ok := bayesperf.LookupCatalog("skylake")
	if !ok {
		t.Fatal("skylake not registered")
	}
	spec.Derived = spec.Derived[:1] // session knows only IPC
	sess, err := bayesperf.New(bayesperf.WithSpec(spec), bayesperf.WithDerived(true))
	if err != nil {
		t.Fatal(err)
	}
	// Source carries the full builder catalog (4 derived events); event
	// lists are identical so bindCatalog accepts it.
	mux := bayesperf.DefaultMuxConfig()
	src := bayesperf.NewSimSource(uarch.Skylake(), bayesperf.DefaultWorkload(30), mux, 5)
	rep, err := sess.RunStream(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DerivedStream) != 1 || rep.DerivedStream[0].Name != "IPC" {
		t.Fatalf("derived rows %+v, want exactly the session catalog's IPC", rep.DerivedStream)
	}
}

// TestValidateModelsExported: the polite model pre-check is reachable from
// the public API (external embedders cannot import internal/measure).
func TestValidateModelsExported(t *testing.T) {
	if err := bayesperf.ValidateModels(uarch.Skylake()); err != nil {
		t.Errorf("builder catalog failed model validation: %v", err)
	}
	spec, _ := bayesperf.LookupCatalog("skylake")
	spec.Events[0].Model = nil
	cat, err := spec.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := bayesperf.ValidateModels(cat); err == nil {
		t.Error("model-less catalog passed validation")
	}
}

// TestSessionEmptySource: zero intervals is an error, not a zero report.
func TestSessionEmptySource(t *testing.T) {
	cat := uarch.Skylake()
	mux := bayesperf.DefaultMuxConfig()
	wl := measure.Workload{Name: "empty"}
	sess, err := bayesperf.New(bayesperf.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunBatch(bayesperf.NewSimSource(cat, wl, mux, 1)); err == nil {
		t.Error("RunBatch on an empty source succeeded")
	}
	sess2, _ := bayesperf.New(bayesperf.WithCatalog(cat))
	if _, err := sess2.RunStream(bayesperf.NewSimSource(cat, wl, mux, 1)); err == nil {
		t.Error("RunStream on an empty source succeeded")
	}
}

// overflowSource reads every event of its catalog at 1e6 per interval,
// except one event whose finite readings are so large that any window or
// run total of them overflows to +Inf.
type overflowSource struct {
	cat  *bayesperf.Catalog
	huge uarch.EventID
	n, i int
}

func (s *overflowSource) Catalog() *bayesperf.Catalog { return s.cat }

func (s *overflowSource) Next() (bayesperf.Interval, bool) {
	if s.i == s.n {
		return bayesperf.Interval{}, false
	}
	iv := bayesperf.Interval{T: s.i}
	for id := 0; id < s.cat.NumEvents(); id++ {
		v := 1e6
		if uarch.EventID(id) == s.huge {
			v = math.MaxFloat64
		}
		iv.Events = append(iv.Events, uarch.EventID(id))
		iv.Values = append(iv.Values, v)
	}
	s.i++
	return iv, true
}

// TestSessionOverflowingTotals: finite readings whose total overflows to
// ±Inf are an input a Source can deliver, so they must neither panic the
// engine nor poison the other events' posteriors. The overflowing event
// is left for the invariants to infer, like an event with no readings.
func TestSessionOverflowingTotals(t *testing.T) {
	cat := uarch.Skylake()
	src := func() *overflowSource {
		return &overflowSource{cat: cat, huge: cat.MustEvent("INST_RETIRED.ANY"), n: 48}
	}
	sess, err := bayesperf.New(bayesperf.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.RunBatch(src())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Events {
		if math.IsNaN(e.Mean) || math.IsInf(e.Mean, 0) {
			t.Errorf("batch: %s posterior mean %v", e.Name, e.Mean)
		}
	}
	rep, err = sess.RunStream(src())
	if err != nil {
		t.Fatal(err)
	}
	for id, series := range rep.Stream.Corrected {
		for ti, v := range series {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("stream: event %d interval %d posterior mean %v", id, ti, v)
			}
		}
	}
}

// malformedSource reads every event of its catalog at 1e6 per interval and,
// at interval bad, hands its interval to corrupt first.
type malformedSource struct {
	cat     *bayesperf.Catalog
	corrupt func(*bayesperf.Interval)
	bad, i  int
}

func (s *malformedSource) Catalog() *bayesperf.Catalog { return s.cat }

func (s *malformedSource) Next() (bayesperf.Interval, bool) {
	if s.i == 2*s.bad {
		return bayesperf.Interval{}, false
	}
	iv := bayesperf.Interval{T: s.i}
	for id := 0; id < s.cat.NumEvents(); id++ {
		iv.Events = append(iv.Events, uarch.EventID(id))
		iv.Values = append(iv.Values, 1e6)
	}
	if s.i == s.bad {
		s.corrupt(&iv)
	}
	s.i++
	return iv, true
}

// TestSessionRejectsMalformedIntervals: an interval naming an event outside
// the catalog, or carrying fewer values than events, is untrusted input
// both run modes must reject with an error — not a panic — and the stream
// run must still join its inference workers.
func TestSessionRejectsMalformedIntervals(t *testing.T) {
	cat := uarch.Skylake()
	corruptions := map[string]func(*bayesperf.Interval){
		"event id past the catalog": func(iv *bayesperf.Interval) { iv.Events[3] = uarch.EventID(999) },
		"negative event id":         func(iv *bayesperf.Interval) { iv.Events[3] = -1 },
		"short values":              func(iv *bayesperf.Interval) { iv.Values = iv.Values[:len(iv.Values)-1] },
	}
	runs := map[string]func(*bayesperf.Session, bayesperf.Source) (*bayesperf.Report, error){
		"batch":  (*bayesperf.Session).RunBatch,
		"stream": (*bayesperf.Session).RunStream,
	}
	goroutines := runtime.NumGoroutine()
	for cname, corrupt := range corruptions {
		for rname, run := range runs {
			sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := run(sess, &malformedSource{cat: cat, corrupt: corrupt, bad: 40})
			if err == nil || rep != nil || !strings.Contains(err.Error(), "source emitted") {
				t.Errorf("%s, %s: report %v, err %v; want the malformed-interval error", rname, cname, rep, err)
			}
		}
	}
	// Workers exit just after signalling the engine, so give them a moment.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the runs, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}
