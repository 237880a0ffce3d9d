package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: bayesperf/internal/graph
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkInferBatch/B=64/exact-4         	     200	    290101 ns/op	      4533 ns/window	     867 B/op	       0 allocs/op
BenchmarkInferBatch/B=64/fast-4          	     200	     93080 ns/op	      1454 ns/window	     967 B/op	       0 allocs/op
BenchmarkInfer-4   	   10000	     12696 ns/op	    1941 B/op	       9 allocs/op
PASS
ok  	bayesperf/internal/graph	0.098s
`

func TestParseBench(t *testing.T) {
	benches, cpu, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", cpu)
	}
	// Sub-benchmark keeps its path, loses Benchmark prefix and -GOMAXPROCS;
	// the ns/window metric wins over ns/op when present.
	e, ok := benches["InferBatch/B=64/fast"]
	if !ok {
		t.Fatalf("fast entry missing; parsed %v", benches)
	}
	if e.NsPerWindow != 1454 || e.AllocsPerOp != 0 {
		t.Errorf("fast entry = %+v, want ns/window 1454 allocs 0", e)
	}
	// A benchmark without the custom metric falls back to ns/op.
	if e := benches["Infer"]; e.NsPerWindow != 12696 || e.AllocsPerOp != 9 {
		t.Errorf("Infer entry = %+v, want ns/op 12696 allocs 9", e)
	}
	if len(benches) != 3 {
		t.Errorf("parsed %d entries, want 3: %v", len(benches), benches)
	}
}

func TestCheckAgainst(t *testing.T) {
	base := map[string]entry{
		"a": {NsPerWindow: 1000, AllocsPerOp: 0},
		"b": {NsPerWindow: 2000, AllocsPerOp: 9},
		"c": {NsPerWindow: 500, AllocsPerOp: 0},
	}
	cur := map[string]entry{
		"a": {NsPerWindow: 1400, AllocsPerOp: 1},  // within 1.5× and alloc slack
		"b": {NsPerWindow: 3100, AllocsPerOp: 40}, // both gates blown
		"d": {NsPerWindow: 100},                   // new, not in baseline
	}
	regs, missing, fresh := checkAgainst(base, cur, 1.5, 2, 2)
	if len(regs) != 2 || regs[0].name != "b" || regs[1].name != "b" {
		t.Fatalf("regressions = %+v, want ns/window and allocs/op for b", regs)
	}
	if len(missing) != 1 || missing[0] != "c" {
		t.Errorf("missing = %v, want [c]", missing)
	}
	if len(fresh) != 1 || fresh[0] != "d" {
		t.Errorf("fresh = %v, want [d]", fresh)
	}
	// A clean run reports nothing.
	regs, missing, _ = checkAgainst(base, map[string]entry{
		"a": {NsPerWindow: 900}, "b": {NsPerWindow: 2000, AllocsPerOp: 9}, "c": {NsPerWindow: 700},
	}, 1.5, 2, 2)
	if len(regs) != 0 || len(missing) != 0 {
		t.Errorf("clean run flagged: regs %+v missing %v", regs, missing)
	}
}

func TestParseBenchKeepsMin(t *testing.T) {
	out := `goos: linux
BenchmarkX-8   100   5000 ns/op   12 allocs/op
BenchmarkX-8   100   4000 ns/op   12 allocs/op
BenchmarkX-8   100   6000 ns/op   12 allocs/op
`
	benches, _, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := benches["X"]; got.NsPerWindow != 4000 || got.AllocsPerOp != 12 {
		t.Errorf("X = %+v, want min ns 4000 allocs 12", got)
	}
}

func TestCheckObsOverhead(t *testing.T) {
	cur := map[string]entry{
		"s/batch=8":      {NsPerWindow: 10000},
		"s/batch=8/obs":  {NsPerWindow: 10300}, // 3% — within 5%
		"s/batch=32":     {NsPerWindow: 8000},
		"s/batch=32/obs": {NsPerWindow: 8900}, // 11.25% — over
	}
	regs, pairs, unpaired := checkObsOverhead(cur, 1.05)
	if len(regs) != 1 || regs[0].name != "s/batch=32/obs" {
		t.Fatalf("regs = %+v, want only the batch=32/obs pair", regs)
	}
	if regs[0].gate != 1.05*8000 {
		t.Errorf("gate = %v, want %v", regs[0].gate, 1.05*8000)
	}
	if pairs != 2 || len(unpaired) != 0 {
		t.Errorf("pairs = %d unpaired = %v, want 2 and none", pairs, unpaired)
	}
	if err := obsGateErr(pairs, unpaired); err != nil {
		t.Errorf("complete input rejected: %v", err)
	}
	if regs, _, _ = checkObsOverhead(cur, 1.2); len(regs) != 0 {
		t.Errorf("relaxed ratio still flagged: %+v", regs)
	}
}

// TestObsGateCannotGoInert: the overhead gate fails, rather than passing
// vacuously, when an '/obs' benchmark lost its twin (a renamed benchmark,
// or a -bench pattern that only partially matches the twin) or when the
// input holds no pair at all.
func TestObsGateCannotGoInert(t *testing.T) {
	for _, tc := range []struct {
		name string
		cur  map[string]entry
	}{
		{"unpaired obs", map[string]entry{
			"s/batch=8":         {NsPerWindow: 10000},
			"s/batch=8/obs":     {NsPerWindow: 10100},
			"s/batch=8/old/obs": {NsPerWindow: 10100}, // twin s/batch=8/old absent
		}},
		{"only obs", map[string]entry{"s/batch=8/obs": {NsPerWindow: 10100}}},
		{"no obs", map[string]entry{"s/batch=8": {NsPerWindow: 10000}}},
	} {
		regs, pairs, unpaired := checkObsOverhead(tc.cur, 1.05)
		if len(regs) != 0 {
			t.Errorf("%s: regs = %+v, want none", tc.name, regs)
		}
		if err := obsGateErr(pairs, unpaired); err == nil {
			t.Errorf("%s: gate passed with %d pairs, unpaired %v", tc.name, pairs, unpaired)
		}
	}
}
