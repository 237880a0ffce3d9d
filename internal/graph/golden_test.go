package graph

import (
	"math"
	"runtime"
	"testing"

	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// goldenPost is one pinned (mean, std) pair, as float64 bits.
type goldenPost struct {
	name      string
	mean, std uint64
}

// goldenWindows pins one exact-kernel window per built-in catalog: every
// event's posterior, then every derived event's DerivedPosterior, then its
// DerivedPosteriorCov ("(cov)"). The values were recorded from the Go
// builders that defined skylake and power9 before the catalogs became
// embedded JSON, so a change to a catalog file or to the formula math that
// moves any bit fails here.
var goldenWindows = map[string]struct {
	iters int
	posts []goldenPost
}{
	"skylake": {
		iters: 21,
		posts: []goldenPost{
			{"INST_RETIRED.ANY", 0x417452edc883bf20, 0x4124b87560091593},
			{"CPU_CLK_UNHALTED.THREAD", 0x414ecd0a9a2a3b3e, 0x40e426f135550c23},
			{"CPU_CLK_UNHALTED.REF_TSC", 0x4160c54c5d28a41d, 0x4110d094d76d437b},
			{"MEM_INST_RETIRED.ALL_LOADS", 0x41728f8890b4b751, 0x4125ea63d6758902},
			{"MEM_INST_RETIRED.ALL_STORES", 0x41764b8ba6a8331c, 0x4112e937a06a0ab8},
			{"BR_INST_RETIRED.ALL_BRANCHES", 0x416928ffde708fef, 0x40f4cf9b5dd1aff6},
			{"BR_MISP_RETIRED.ALL_BRANCHES", 0x415ce146fed92403, 0x40e98142aceed4b4},
			{"BR_PRED_RETIRED.ALL_BRANCHES", 0x41555a26f28268f2, 0x40eefae292f886d1},
			{"INST_RETIRED.OTHER", 0xc1808601106b0dc8, 0x412e45b871ee043b},
			{"MEM_LOAD_RETIRED.L1_HIT", 0x41612a5cc3d0620d, 0x412870f45733c26a},
			{"MEM_LOAD_RETIRED.L1_MISS", 0x4163fa288595df13, 0x411775c6f0023786},
			{"MEM_LOAD_RETIRED.L2_HIT", 0xc186cb984ee6e786, 0x4139561829f239ea},
			{"MEM_LOAD_RETIRED.L3_HIT", 0x4175e3befa7fcd83, 0x4135acfa381f0226},
			{"MEM_LOAD_RETIRED.L3_MISS", 0x4180d842f2dea364, 0x41276ec532eddf2c},
			{"L1D_PEND_MISS.PENDING", 0x4184066d2649257e, 0x4119da9ad1f0fffc},
			{"OFFCORE_RESPONSE.DEMAND_DATA_RD", 0x418bc2f153eef18f, 0x413618c64810242f},
			{"OFFCORE_RESPONSE.DEMAND_DATA_RD.L3_MISS", 0x4180dbb8fd81f553, 0x41276550685d91ff},
			{"IPC", 0x40151d798fcfbc5b, 0x3fc69bb5ffb97a36},
			{"L3_MPKI", 0x4099e68390cdc516, 0x404ff73c52dedb99},
			{"Branch_Misp_Rate", 0x3fe25d94109c4dfd, 0x3f7638e297b361f4},
			{"Backend_Bound", 0x407d0876bbb900dd, 0x4026c23dae5b0272},
			{"IPC (cov)", 0x40151d798fcfbc5b, 0x3fc69bb5ffb97a36},
			{"L3_MPKI (cov)", 0x4099e68390cdc516, 0x404ff73c52dedb99},
			{"Branch_Misp_Rate (cov)", 0x3fe25d94109c4dfd, 0x3f6bf2f690cd5550},
			{"Backend_Bound (cov)", 0x407d0876bbb900dd, 0x40250120e2eb6af7},
		},
	},
	"power9": {
		iters: 20,
		posts: []goldenPost{
			{"PM_INST_CMPL", 0x418053b28d76063b, 0x4120c7f305acd163},
			{"PM_RUN_CYC", 0x414ecd0a9a2a3b3e, 0x40e426f135550c23},
			{"PM_LD_CMPL", 0x41585d18ee1d1508, 0x41103815d852d6a9},
			{"PM_ST_CMPL", 0xc1104a4353794a6c, 0x412136c09d8f2f01},
			{"PM_BR_CMPL", 0x4173dc6a67451c4d, 0x41124abd721e8971},
			{"PM_BR_MPRED_CMPL", 0x4180f11c356588ff, 0x4123fca553141ecc},
			{"PM_INST_OTHER_CMPL", 0x415c0f2cd9e74141, 0x40e98ffd1ce688f7},
			{"PM_LD_HIT_L1", 0x4154a104e4fc35c8, 0x40ef1fb27911dd0a},
			{"PM_LD_MISS_L1", 0x412e1783c400f334, 0x4110c67cb1dcbab8},
			{"PM_DATA_FROM_L2", 0x4187acea31ee8f4a, 0x41436d1d0382b79b},
			{"PM_DATA_FROM_L3", 0x4165c82b51ece92f, 0x4117b5c3f04bd3ee},
			{"PM_DATA_FROM_MEM", 0xc18ca696f747bd64, 0x4143c4579427b635},
			{"IPC", 0x4020f668ed62685e, 0x3fc4aabd5c42dbec},
			{"DL1_MPKI", 0x403ccc5167798c62, 0x402014ab9ac27196},
			{"Branch_Misp_Rate", 0x3ffb4bf1688681d7, 0x3fa46d50fe263803},
			{"IPC (cov)", 0x4020f668ed62685e, 0x3fc4aabd5c42dbec},
			{"DL1_MPKI (cov)", 0x403ccc5167798c62, 0x402014ab9ac27196},
			{"Branch_Misp_Rate (cov)", 0x3ffb4bf1688681d7, 0x3fa46d50fe263803},
		},
	},
}

// TestBuiltinCatalogGoldenWindow runs the pinned window (observeRound with
// seed 7, 200 sweeps, tol 1e-9, covariance on) on the exact kernel for each
// built-in catalog. The comparison is bitwise on amd64 and within 1e-12
// relative elsewhere, where the compiler may fuse multiply-adds.
func TestBuiltinCatalogGoldenWindow(t *testing.T) {
	forceExact(t)
	for _, name := range []string{"skylake", "power9"} {
		want := goldenWindows[name]
		spec, ok := uarch.Lookup(name)
		if !ok {
			t.Fatalf("%s: not registered", name)
		}
		cat := spec.MustCatalog()
		batch := Compile(cat).NewBatch(1)
		batch.EnableCovariance()
		observeRound(cat, rng.New(7), func(id uarch.EventID, mean, std float64) {
			batch.Observe(0, id, mean, std)
		})
		res := batch.Execute(1, 200, 1e-9).Window(0)
		if res.Iters != want.iters {
			t.Errorf("%s: %d sweeps, golden %d", name, res.Iters, want.iters)
		}
		var got []goldenPost
		for id := range res.Mean {
			got = append(got, goldenPost{cat.Events[id].Name, math.Float64bits(res.Mean[id]), math.Float64bits(res.Std[id])})
		}
		for i := range cat.Derived {
			m, s := res.DerivedPosterior(&cat.Derived[i])
			got = append(got, goldenPost{cat.Derived[i].Name, math.Float64bits(m), math.Float64bits(s)})
		}
		for i := range cat.Derived {
			m, s := res.DerivedPosteriorCov(&cat.Derived[i])
			got = append(got, goldenPost{cat.Derived[i].Name + " (cov)", math.Float64bits(m), math.Float64bits(s)})
		}
		if len(got) != len(want.posts) {
			t.Fatalf("%s: %d posteriors, golden %d", name, len(got), len(want.posts))
		}
		for i, w := range want.posts {
			g := got[i]
			if g.name != w.name || !goldenEqual(g.mean, w.mean) || !goldenEqual(g.std, w.std) {
				t.Errorf("%s: %s = %v ± %v, golden %s = %v ± %v", name,
					g.name, math.Float64frombits(g.mean), math.Float64frombits(g.std),
					w.name, math.Float64frombits(w.mean), math.Float64frombits(w.std))
			}
		}
	}
}

// goldenEqual compares float64 bits exactly on amd64 and within 1e-12
// relative elsewhere.
func goldenEqual(got, want uint64) bool {
	if got == want || runtime.GOARCH == "amd64" {
		return got == want
	}
	g, w := math.Float64frombits(got), math.Float64frombits(want)
	return math.Abs(g-w) <= 1e-12*math.Abs(w)
}
