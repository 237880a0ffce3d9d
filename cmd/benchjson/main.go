// Command benchjson turns `go test -bench` output into a committed JSON
// perf baseline and gates later runs against it — the enforcement half of
// the repo's committed perf trajectory (BENCH_graph.json, BENCH_stream.json,
// BENCH_obs.json).
//
// Baseline mode (refreshing the committed trajectory is an explicit,
// reviewed act — rerun these and commit the diff). Repeated benchmarks
// (-count, or several concatenated runs) keep their minimum, so noisy
// machines converge on the honest number:
//
//	go test -run='^$' -bench=InferBatch -benchtime=200x ./internal/graph |
//	    go run ./cmd/benchjson -out BENCH_graph.json
//	{ go test -run='^$' -bench=StreamBatched -benchtime=20x -count=3 ./internal/stream
//	  for i in 1 2 3 4 5 6; do
//	    go test -run='^$' -bench='StreamBatched/^batch=8$' -benchtime=20x ./internal/stream
//	  done; } | go run ./cmd/benchjson -out BENCH_stream.json
//	go test -run='^$' -bench=Obs -benchtime=10000000x -count=3 ./internal/obs |
//	    go run ./cmd/benchjson -out BENCH_obs.json
//
// (The stream refresh appends interleaved runs of the batch=8 pair so the
// '/obs' instrumented variant and its metrics-off twin are measured under
// the same machine conditions — see the obs gate below. The pattern
// anchors the leaf: `StreamBatched/batch=8/` would run batch=8/obs but
// only partially match, and so not report, its depth-2 twin batch=8.)
//
// Check mode (CI): parse a fresh run, optionally emit it as a JSON
// artifact, and fail loudly when any benchmark's per-window time regresses
// beyond -max-ratio of the committed baseline or its allocations grow past
// -max-alloc-ratio (plus a small absolute slack for lazily-allocated
// scratch amortized over short -benchtime runs):
//
//	go test -run='^$' -bench=InferBatch -benchtime=200x ./internal/graph |
//	    go run ./cmd/benchjson -check BENCH_graph.json -emit bench_graph_ci.json
//
// Obs-overhead mode (CI's metrics overhead gate): with -obs-max-ratio and
// no -out/-check, every '<name>/obs' benchmark is compared against its
// '<name>' twin from the SAME input and fails past the ratio — the bound
// on what live instrumentation may cost the pipeline. An '/obs' benchmark
// without its twin, or an input with no pair at all, fails the gate too,
// so a renamed benchmark or a mistyped -bench pattern cannot turn it off:
//
//	for i in 1 2 3 4 5 6; do
//	    go test -run='^$' -bench='StreamBatched/^batch=8$' -benchtime=20x ./internal/stream
//	done | go run ./cmd/benchjson -obs-max-ratio 1.05
//
// The recorded metric is ns/window when the benchmark reports one
// (b.ReportMetric), ns/op otherwise; allocs/op always rides along.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// entry is one benchmark's recorded trajectory point.
type entry struct {
	NsPerWindow float64 `json:"ns_per_window"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// baseline is the committed JSON document.
type baseline struct {
	Note       string           `json:"note"`
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

const refreshNote = "Committed perf baseline (ns/window, allocs/op). Machines differ; CI " +
	"gates on the ratio to this file, not the absolute numbers. Refreshing is an " +
	"explicit, reviewed act: rerun the matching `go test -bench` command piped " +
	"through `go run ./cmd/benchjson -out <this file>` and commit the diff."

// parseBench extracts benchmark entries and the reported cpu line from
// `go test -bench` output. Benchmark names lose the "Benchmark" prefix and
// the trailing -GOMAXPROCS suffix so they are stable across machines. When
// the run repeats a benchmark (`go test -count=N`) the MINIMUM time is
// kept — the best observation is the one least polluted by machine load,
// which is what a shared CI runner needs for tight ratio gates.
func parseBench(r io.Reader) (map[string]entry, string, error) {
	benches := make(map[string]entry)
	var cpu string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		metrics := make(map[string]float64)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, "", fmt.Errorf("benchjson: bad value %q in line %q", fields[i], line)
			}
			metrics[fields[i+1]] = v
		}
		ns, ok := metrics["ns/window"]
		if !ok {
			if ns, ok = metrics["ns/op"]; !ok {
				continue
			}
		}
		e := entry{NsPerWindow: ns, AllocsPerOp: metrics["allocs/op"]}
		if prev, seen := benches[name]; seen {
			if prev.NsPerWindow < e.NsPerWindow {
				e.NsPerWindow = prev.NsPerWindow
			}
			if prev.AllocsPerOp < e.AllocsPerOp {
				e.AllocsPerOp = prev.AllocsPerOp
			}
		}
		benches[name] = e
	}
	return benches, cpu, sc.Err()
}

// regression describes one failed gate.
type regression struct {
	name, what string
	have, want float64
	gate       float64
}

// checkAgainst compares a fresh run to the committed baseline. Every
// baseline benchmark must be present and within the ratio gates; fresh
// benchmarks absent from the baseline are surfaced (the trajectory file
// needs a reviewed refresh) but do not fail the run. allocSlack absorbs
// lazily-allocated scratch amortized over short -benchtime runs.
func checkAgainst(base, cur map[string]entry, maxRatio, maxAllocRatio, allocSlack float64) (regs []regression, missing, fresh []string) {
	for name, b := range base {
		c, ok := cur[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if c.NsPerWindow > maxRatio*b.NsPerWindow {
			regs = append(regs, regression{name, "ns/window", c.NsPerWindow, b.NsPerWindow, maxRatio * b.NsPerWindow})
		}
		if c.AllocsPerOp > maxAllocRatio*b.AllocsPerOp+allocSlack {
			regs = append(regs, regression{name, "allocs/op", c.AllocsPerOp, b.AllocsPerOp, maxAllocRatio*b.AllocsPerOp + allocSlack})
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].name < regs[j].name })
	sort.Strings(missing)
	sort.Strings(fresh)
	return regs, missing, fresh
}

// checkObsOverhead pairs each "<name>/obs" benchmark with its metrics-off
// twin "<name>" from the SAME run and fails when instrumentation costs more
// than obsMaxRatio of the uninstrumented time. Comparing within one run
// (not against the committed baseline) keeps the gate machine-independent:
// both sides saw the same CPU, load, and scaling. It also returns the
// number of pairs compared and the '/obs' benchmarks that had no twin;
// the caller fails on either an unpaired name or zero pairs.
func checkObsOverhead(cur map[string]entry, obsMaxRatio float64) (regs []regression, pairs int, unpaired []string) {
	for name, c := range cur {
		base, ok := strings.CutSuffix(name, "/obs")
		if !ok {
			continue
		}
		b, ok := cur[base]
		if !ok {
			unpaired = append(unpaired, name)
			continue
		}
		pairs++
		if c.NsPerWindow > obsMaxRatio*b.NsPerWindow {
			regs = append(regs, regression{name, "obs overhead ns/window", c.NsPerWindow, b.NsPerWindow, obsMaxRatio * b.NsPerWindow})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].name < regs[j].name })
	sort.Strings(unpaired)
	return regs, pairs, unpaired
}

// obsGateErr reports why the overhead gate compared nothing it was asked
// to: an '/obs' benchmark whose twin is missing, or no pair at all.
func obsGateErr(pairs int, unpaired []string) error {
	if len(unpaired) > 0 {
		return fmt.Errorf("benchjson: '/obs' benchmarks without a metrics-off twin in the same input: %s", strings.Join(unpaired, ", "))
	}
	if pairs == 0 {
		return fmt.Errorf("benchjson: no '<name>/obs' + '<name>' pairs on stdin for the overhead gate")
	}
	return nil
}

func writeJSON(path string, doc baseline) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func main() {
	out := flag.String("out", "", "write the parsed run as a new committed baseline to this file")
	check := flag.String("check", "", "compare the parsed run against this committed baseline and fail on regression")
	emit := flag.String("emit", "", "with -check: also write the parsed run to this file (CI artifact)")
	maxRatio := flag.Float64("max-ratio", 1.5, "fail when ns/window exceeds this multiple of the baseline")
	maxAllocRatio := flag.Float64("max-alloc-ratio", 2, "fail when allocs/op exceeds this multiple of the baseline (plus -alloc-slack)")
	allocSlack := flag.Float64("alloc-slack", 2, "absolute allocs/op headroom for scratch amortized over short -benchtime runs")
	obsMaxRatio := flag.Float64("obs-max-ratio", 0, "fail when a '<name>/obs' benchmark exceeds this multiple of '<name>' in the same run (0 = skip). Works with -check or standalone; standalone is the CI metrics-overhead gate, run on an isolated obs/non-obs pair so the two sides share machine conditions")
	flag.Parse()
	obsOnly := *obsMaxRatio > 0 && *out == "" && *check == ""
	if !obsOnly && (*out == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "benchjson: exactly one of -out or -check is required (or -obs-max-ratio alone)")
		os.Exit(2)
	}

	cur, cpu, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(cur) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin (pipe `go test -bench` output)")
		os.Exit(2)
	}
	doc := baseline{Note: refreshNote, CPU: cpu, Benchmarks: cur}

	if obsOnly {
		regs, pairs, unpaired := checkObsOverhead(cur, *obsMaxRatio)
		if err := obsGateErr(pairs, unpaired); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: %s %s at %.4g (metrics-off twin %.4g, gate %.4g)\n",
				r.name, r.what, r.have, r.want, r.gate)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: metrics overhead gate FAILED (max ratio %.3g)\n", *obsMaxRatio)
			os.Exit(1)
		}
		fmt.Printf("benchjson: %d obs pairs within the %.3g× metrics overhead gate\n", pairs, *obsMaxRatio)
		return
	}

	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(cur), *out)
		return
	}

	raw, err := os.ReadFile(*check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *check, err)
		os.Exit(2)
	}
	if *emit != "" {
		if err := writeJSON(*emit, doc); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
	}

	regs, missing, freshNames := checkAgainst(base.Benchmarks, cur, *maxRatio, *maxAllocRatio, *allocSlack)
	if *obsMaxRatio > 0 {
		obsRegs, pairs, unpaired := checkObsOverhead(cur, *obsMaxRatio)
		if err := obsGateErr(pairs, unpaired); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		regs = append(regs, obsRegs...)
	}
	for _, name := range freshNames {
		fmt.Printf("benchjson: note: %s is not in %s (refresh the baseline to start tracking it)\n", name, *check)
	}
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: baseline benchmark %s missing from this run — if it was renamed or removed on purpose, refresh %s\n", name, *check)
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: %s %s regressed to %.4g (reference %.4g, gate %.4g)\n",
			r.name, r.what, r.have, r.want, r.gate)
	}
	if len(regs) > 0 || len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: perf trajectory check FAILED against %s.\n"+
			"If the regression is intentional and reviewed, refresh the baseline:\n"+
			"  <the matching go test -bench command> | go run ./cmd/benchjson -out %s\n", *check, *check)
		os.Exit(1)
	}
	fmt.Printf("benchjson: %d benchmarks within the committed trajectory (%s)\n", len(base.Benchmarks), *check)
}
