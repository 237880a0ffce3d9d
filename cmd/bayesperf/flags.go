// Shared flag plumbing for the run and stream subcommands: both modes take
// the same seed/arch/catalog/noise/inference/reporting knobs, so they are
// defined once here and cannot drift between subcommands.
package main

import (
	"flag"
	"fmt"
	"strings"

	"bayesperf/internal/measure"
	"bayesperf/internal/uarch"
)

// sharedFlags are the knobs common to `bayesperf run` and
// `bayesperf stream`.
type sharedFlags struct {
	seed      *uint64
	intervals *int
	noise     *float64
	maxIter   *int
	tol       *float64
	arch      *string
	catalog   *string
	derived   *bool
	quiet     *bool

	metrics     *string
	metricsAddr *string
}

// addSharedFlags registers the shared flag set on fs. defaultIntervals
// differs between the modes (batch sees whole-run totals and wants longer
// runs; stream pays per-window inference).
func addSharedFlags(fs *flag.FlagSet, defaultIntervals int) *sharedFlags {
	return &sharedFlags{
		seed:      fs.Uint64("seed", 42, "RNG seed (whole pipeline is deterministic per seed)"),
		intervals: fs.Int("intervals", defaultIntervals, "sampling intervals per workload phase"),
		noise:     fs.Float64("noise", 0.01, "relative per-interval measurement noise"),
		maxIter:   fs.Int("maxiter", 0, "max message-passing sweeps per inference (0 = default 500)"),
		tol:       fs.Float64("tol", 0, "convergence tolerance on posterior means (0 = default 1e-9)"),
		arch:      fs.String("arch", "all", "registered catalog to run ('all' for every one; see -catalog for files)"),
		catalog:   fs.String("catalog", "", "load the catalog from a JSON spec file instead of the registry"),
		derived:   fs.Bool("derived", false, "evaluate derived events (IPC, MPKI, …) with propagated posterior stds and gate on their improvement"),
		quiet:     fs.Bool("q", false, "only print per-catalog summary lines"),

		metrics:     fs.String("metrics", "", "write a pipeline metrics snapshot at exit ('-' = stdout; Prometheus text, or JSON with a .json suffix)"),
		metricsAddr: fs.String("metrics-addr", "", "serve live pipeline metrics over HTTP (e.g. :9090; GET /metrics and /metrics.json)"),
	}
}

// resolveCatalogs validates the shared flags and resolves -catalog/-arch
// into the catalogs to run: a JSON spec file when -catalog is given,
// otherwise the named registry entry (or every entry for "all"). Unknown
// -arch values report the valid choices.
func resolveCatalogs(sf *sharedFlags) ([]*uarch.Catalog, error) {
	if *sf.intervals < 1 {
		return nil, fmt.Errorf("-intervals must be >= 1 (got %d)", *sf.intervals)
	}
	if *sf.catalog != "" {
		spec, err := uarch.LoadSpecFile(*sf.catalog)
		if err != nil {
			return nil, err
		}
		cat, err := spec.Catalog()
		if err != nil {
			return nil, err
		}
		if err := measure.ValidateModels(cat); err != nil {
			return nil, fmt.Errorf("%s: %w", *sf.catalog, err)
		}
		return []*uarch.Catalog{cat}, nil
	}
	names := uarch.Names()
	arch := strings.ToLower(*sf.arch)
	if arch == "all" {
		cats := make([]*uarch.Catalog, 0, len(names))
		for _, name := range names {
			spec, _ := uarch.Lookup(name)
			cats = append(cats, spec.MustCatalog())
		}
		return cats, nil
	}
	spec, ok := uarch.Lookup(arch)
	if !ok {
		return nil, fmt.Errorf("unknown -arch %q (valid: all, %s)", *sf.arch, strings.Join(names, ", "))
	}
	return []*uarch.Catalog{spec.MustCatalog()}, nil
}

// muxConfig builds the observation model from the shared flags plus the
// stream-only outlier/Gumbel knobs (zero-valued for the batch mode).
func (sf *sharedFlags) muxConfig(gumbel bool, outliers float64) measure.MuxConfig {
	cfg := measure.DefaultMuxConfig()
	cfg.NoiseFrac = *sf.noise
	cfg.GumbelReject = gumbel
	if outliers > 0 {
		cfg.OutlierProb = outliers
		cfg.OutlierMag = 8
	}
	return cfg
}

// inference resolves the -maxiter/-tol pair (0 = defaults, filled by
// bayesperf.WithInference).
func (sf *sharedFlags) inference() (maxIter int, tol float64) {
	return *sf.maxIter, *sf.tol
}
