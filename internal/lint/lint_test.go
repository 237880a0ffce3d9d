package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bayesperf/internal/lint"
)

// loadTestdata loads internal/lint/testdata/src/<name> through the real
// loader (so the testdata packages are parsed and type-checked exactly like
// production packages).
func loadTestdata(t *testing.T, name string) *lint.Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader(%s): %v", dir, err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

// checkRule diffs one analyzer's findings on its testdata package against
// the package's // want comments.
func checkRule(t *testing.T, rule string) {
	t.Helper()
	pkg := loadTestdata(t, rule)
	analyzers, err := lint.ByName(rule)
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range lint.CheckExpectations(pkg, analyzers) {
		t.Error(problem)
	}
}

func TestMapOrder(t *testing.T)     { checkRule(t, "maporder") }
func TestKernelPurity(t *testing.T) { checkRule(t, "kernelpurity") }
func TestFloatEq(t *testing.T)      { checkRule(t, "floateq") }
func TestHotAlloc(t *testing.T)     { checkRule(t, "hotalloc") }
func TestNilRecv(t *testing.T)      { checkRule(t, "nilrecv") }
func TestLockSafe(t *testing.T)     { checkRule(t, "locksafe") }

// heldCase is one function body run with mu held by a deferred pair, and the
// locksafe finding it must produce ("" for none).
type heldCase struct {
	name, body, want string
}

// checkHeld runs locksafe on each case's body, placed after
// `mu.Lock(); defer mu.Unlock()` in a scratch module.
func checkHeld(t *testing.T, cases []heldCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := "package p\n\nimport \"sync\"\n\n" +
				"func f(mu, other *sync.Mutex, wg *sync.WaitGroup, ch chan int, xs []int) {\n" +
				"\tmu.Lock()\n\tdefer mu.Unlock()\n" + tc.body + "\n}\n"
			for name, data := range map[string]string{"go.mod": "module p\n\ngo 1.22\n", "p.go": src} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			loader, err := lint.NewLoader(dir)
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			diags := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.LockSafe})
			switch {
			case tc.want == "" && len(diags) != 0:
				t.Fatalf("want no finding, got %v", diags)
			case tc.want != "" && (len(diags) != 1 || !strings.Contains(diags[0].Message, tc.want)):
				t.Fatalf("want one finding %q, got %v", tc.want, diags)
			}
		})
	}
}

// TestBlockingLock covers the blocking-under-lock checks locksafe took over
// from the retired blockinglock rule.
func TestBlockingLock(t *testing.T) {
	checkHeld(t, []heldCase{
		{"send", "\tch <- 1", "channel send while mu is held"},
		{"recv", "\t<-ch", "channel receive while mu is held"},
		{"range-chan", "\tfor range ch {\n\t}", "range over a channel while mu is held"},
		{"select", "\tselect {\n\tcase <-ch:\n\t}", "select without default while mu is held"},
		{"nested-lock", "\tother.Lock()\n\tdefer other.Unlock()", "other.Lock() while mu is held"},
		{"nested-branch", "\tif len(xs) > 0 {\n\t\tch <- 1\n\t}", "channel send while mu is held"},
		{"select-default", "\tselect {\n\tcase <-ch:\n\tdefault:\n\t}", ""},
		{"range-slice", "\tfor range xs {\n\t}", ""},
		{"go-literal", "\tgo func() { ch <- 1 }()", ""},
	})
}

// TestWGDiscipline covers the WaitGroup check locksafe took over from the
// retired wgdiscipline rule: Wait must not run under a lock. Add-before-go
// is enforced by the race detector instead.
func TestWGDiscipline(t *testing.T) {
	checkHeld(t, []heldCase{
		{"wait", "\twg.Wait()", "WaitGroup.Wait while mu is held"},
		{"wait-in-loop", "\tfor range xs {\n\t\twg.Wait()\n\t}", "WaitGroup.Wait while mu is held"},
		{"add-done", "\twg.Add(1)\n\twg.Done()", ""},
		{"wait-in-literal", "\tgo func() { wg.Wait() }()", ""},
	})
}

func TestByName(t *testing.T) {
	all, err := lint.ByName("")
	if err != nil || len(all) != 6 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 6, nil", len(all), err)
	}
	two, err := lint.ByName("maporder, floateq")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset = %d analyzers, err %v; want 2, nil", len(two), err)
	}
	if _, err := lint.ByName("nosuchrule"); err == nil {
		t.Fatal("ByName accepted an unknown rule")
	}
}
