// Command bayesperf runs the full BayesPerf pipeline end to end: simulate a
// phase-structured workload (ground truth), multiplex its events over the
// PMU's limited counters (raw noisy estimates), correct the estimates with
// the invariant factor graph, and report per-event relative error of raw
// vs. corrected — demonstrating the paper's headline result that the
// corrected estimates are strictly more accurate than naive multiplexed
// scaling.
//
// Usage:
//
//	bayesperf [run] [-seed N] [-intervals N] [-noise F] [-maxiter N]
//	          [-tol F] [-arch all|<name>] [-catalog file.json]
//	          [-derived] [-q]
//	bayesperf stream [flags]   (see cmd/bayesperf/stream.go)
//
// The bare command (or the explicit run subcommand) is the batch mode
// (whole-run totals); the stream subcommand is the online mode. Catalogs
// resolve from the named registry (-arch skylake, power9, …) or from a JSON
// spec file (-catalog zen.json) — the CLI is a thin adapter over the
// embeddable pkg/bayesperf Session API, which owns all pipeline plumbing.
package main

import (
	"flag"
	"fmt"
	"os"

	"bayesperf/internal/measure"
	"bayesperf/internal/stats"
	"bayesperf/internal/uarch"
	"bayesperf/pkg/bayesperf"
)

// runCatalog executes generate → multiplex → infer → evaluate on one
// catalog through the Session API; it is the unit under test for the
// end-to-end acceptance check.
func runCatalog(cat *uarch.Catalog, wl measure.Workload, mux measure.MuxConfig,
	seed uint64, maxIter int, tol float64,
	reg *bayesperf.MetricsRegistry) (*bayesperf.Report, error) {

	sess, err := bayesperf.New(
		bayesperf.WithCatalog(cat),
		bayesperf.WithMux(mux),
		bayesperf.WithInference(maxIter, tol),
		bayesperf.WithMetrics(reg),
	)
	if err != nil {
		return nil, err
	}
	return sess.RunBatch(bayesperf.NewSimSource(cat, wl, mux, seed))
}

func printReport(rep *bayesperf.Report, quiet, derived bool) {
	fmt.Printf("=== %s ===\n", rep.Arch)
	fmt.Printf("multiplex groups: %d   inference: %d iters (converged=%v) sweeps=%d unconverged=%d\n",
		rep.Groups, rep.Iters, rep.Converged, rep.TotalSweeps, rep.UnconvergedWindows)
	if !quiet {
		fmt.Printf("%-42s %5s %9s %12s %12s\n", "event", "kind", "coverage", "raw err", "corrected")
		for _, e := range rep.Events {
			kind := "prog"
			if e.Fixed {
				kind = "fix"
			}
			fmt.Printf("%-42s %5s %8.0f%% %11.3f%% %11.3f%%\n",
				e.Name, kind, 100*e.Coverage, 100*e.RawErr, 100*e.CorrErr)
		}
		// With -derived the posterior table below subsumes these rows.
		if len(rep.Derived) > 0 && !derived {
			fmt.Printf("%-42s %5s %9s %12s %12s\n", "derived event", "", "", "raw err", "corrected")
			for _, d := range rep.Derived {
				fmt.Printf("%-42s %5s %9s %11.3f%% %11.3f%%\n",
					d.Name, "", "", 100*d.RawErr, 100*d.CorrErr)
			}
		}
	}
	verdict := "IMPROVED"
	if !rep.Improved() {
		verdict = "NOT IMPROVED"
	}
	fmt.Printf("mean relative error: raw-multiplexed %.3f%% → bayesperf-corrected %.3f%%  [%s]\n",
		100*rep.RawMeanErr, 100*rep.CorrMeanErr, verdict)
	if derived {
		fmt.Printf("derived-event posteriors (delta method over the factor-graph marginals):\n")
		for _, d := range rep.Derived {
			fmt.Printf("  %-20s truth %10.4f   posterior %10.4f ± %.4f   raw err %7.3f%% → corrected %7.3f%%\n",
				d.Name, d.Truth, d.Mean, d.Std, 100*d.RawErr, 100*d.CorrErr)
		}
	}
	fmt.Println()
}

// derivedSeeds is the ensemble size behind the batch -derived verdict. A
// single realization's derived error is dominated by the luck of two
// nearly-cancelling input-event errors, so the §6.2 claim — correction
// shrinks derived-event error — is asserted on the seed-pooled estimate,
// mirroring the paper's run-averaged evaluation.
const derivedSeeds = 11

// derivedEnsemble pools the derived-event raw/corrected mean errors over
// derivedSeeds consecutive seeds, reusing the base seed's already-computed
// report as the first member (the pipeline is deterministic per seed, so
// re-running it would be pure waste). The loop counts members rather than
// comparing seeds so a base seed near the top of the uint64 range still
// yields a full ensemble (individual member seeds wrapping is harmless).
func derivedEnsemble(base *bayesperf.Report, cat *uarch.Catalog, wl measure.Workload,
	mux measure.MuxConfig, seed uint64, maxIter int, tol float64,
	reg *bayesperf.MetricsRegistry) (raw, corr float64, err error) {

	var dRaw, dCorr stats.Running
	pool := func(rows []bayesperf.DerivedReport) {
		for _, d := range rows {
			dRaw.Add(d.RawErr)
			dCorr.Add(d.CorrErr)
		}
	}
	pool(base.Derived)
	for i := 1; i < derivedSeeds; i++ {
		rep, rerr := runCatalog(cat, wl, mux, seed+uint64(i), maxIter, tol, reg)
		if rerr != nil {
			return 0, 0, rerr
		}
		pool(rep.Derived)
	}
	return dRaw.Mean(), dCorr.Mean(), nil
}

// fatal prints the prefixed message and exits with the given status.
func fatal(prog string, status int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(status)
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "stream" {
		streamMain(args[1:])
		return
	}
	if len(args) > 0 && args[0] == "run" {
		args = args[1:] // explicit alias for the default batch mode
	}
	fs := flag.NewFlagSet("bayesperf run", flag.ExitOnError)
	sf := addSharedFlags(fs, 200)
	fs.Parse(args)

	cats, err := resolveCatalogs(sf)
	if err != nil {
		fatal("bayesperf", 2, err)
	}
	sink, err := newMetricsSink(*sf.metrics, *sf.metricsAddr)
	if err != nil {
		fatal("bayesperf", 2, err)
	}
	wl := measure.DefaultWorkload(*sf.intervals)
	mux := sf.muxConfig(false, 0)
	maxIter, tol := sf.inference()

	ok := true
	for _, cat := range cats {
		rep, err := runCatalog(cat, wl, mux, *sf.seed, maxIter, tol, sink.Registry())
		if err != nil {
			fatal("bayesperf", 1, err)
		}
		printReport(rep, *sf.quiet, *sf.derived)
		if !rep.Improved() {
			ok = false
		}
		if *sf.derived {
			dRaw, dCorr, err := derivedEnsemble(rep, cat, wl, mux, *sf.seed, maxIter, tol, sink.Registry())
			if err != nil {
				fatal("bayesperf", 1, err)
			}
			dVerdict := "IMPROVED"
			if dCorr >= dRaw {
				dVerdict = "NOT IMPROVED"
				ok = false
			}
			fmt.Printf("derived mean relative error over %d seeds: raw %.3f%% → corrected %.3f%%  [%s]\n\n",
				derivedSeeds, 100*dRaw, 100*dCorr, dVerdict)
		}
	}
	// Snapshot before the exit gate so a NOT IMPROVED run still reports its
	// pipeline metrics.
	if err := sink.Flush(); err != nil {
		fatal("bayesperf", 1, err)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bayesperf: correction did not improve on raw multiplexing")
		os.Exit(1)
	}
}
