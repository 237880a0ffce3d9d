package timeseries

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"bayesperf/internal/rng"
)

func TestSeriesBasics(t *testing.T) {
	s := Series{1, 2, 3, 4}
	if s.Sum() != 10 || s.Mean() != 2.5 {
		t.Errorf("sum/mean = %v/%v", s.Sum(), s.Mean())
	}
	if (Series{}).Mean() != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestMap(t *testing.T) {
	a := Series{10, 20, 30, 40}
	b := Series{2, 4, 5} // shorter: result is clipped to the common length
	ratio := Map(func(in []float64) float64 { return in[0] / in[1] }, a, b)
	want := Series{5, 5, 6}
	if len(ratio) != len(want) {
		t.Fatalf("Map length %d, want %d", len(ratio), len(want))
	}
	for i := range want {
		if ratio[i] != want[i] {
			t.Errorf("Map[%d] = %v, want %v", i, ratio[i], want[i])
		}
	}
	// Single series and empty inputs.
	double := Map(func(in []float64) float64 { return 2 * in[0] }, b)
	if len(double) != 3 || double[2] != 10 {
		t.Errorf("Map over one series = %v", double)
	}
	if got := Map(func([]float64) float64 { return 1 }); got != nil {
		t.Errorf("Map with no series = %v, want nil", got)
	}
}

func TestDTWIdenticalIsZero(t *testing.T) {
	s := Series{1, 5, 2, 8, 3}
	cost, path, err := DTW(s, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("self-DTW cost = %v, want 0", cost)
	}
	// Diagonal path.
	if len(path) != len(s) {
		t.Errorf("self path length = %d", len(path))
	}
	for _, p := range path {
		if p.I != p.J {
			t.Errorf("self path should be diagonal, got %v", p)
		}
	}
}

func TestDTWShiftInvariance(t *testing.T) {
	// A time-shifted copy of a spiky series should align with near-zero
	// cost — this is exactly why the paper uses DTW rather than pointwise
	// comparison of asynchronous traces.
	base := Series{0, 0, 10, 0, 0, 0, 7, 0, 0}
	shifted := Series{0, 0, 0, 10, 0, 0, 0, 7, 0}
	costDTW, _, err := DTW(base, shifted, 0)
	if err != nil {
		t.Fatal(err)
	}
	var pointwise float64 // large
	for i := range base {
		pointwise += math.Abs(shifted[i] - base[i])
	}
	if costDTW != 0 {
		t.Errorf("DTW cost of shifted spikes = %v, want 0", costDTW)
	}
	if pointwise == 0 {
		t.Error("pointwise metric should see the shift (sanity)")
	}
}

func TestDTWEmpty(t *testing.T) {
	if _, _, err := DTW(nil, Series{1}, 0); err != ErrDTWEmpty {
		t.Errorf("err = %v, want ErrDTWEmpty", err)
	}
}

func TestDTWPathEndpoints(t *testing.T) {
	prop := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 1
		m := int(mRaw%20) + 1
		r := rng.New(seed)
		a := make(Series, n)
		b := make(Series, m)
		for i := range a {
			a[i] = r.Float64() * 10
		}
		for i := range b {
			b[i] = r.Float64() * 10
		}
		_, path, err := DTW(a, b, 0)
		if err != nil || len(path) == 0 {
			return false
		}
		first, last := path[0], path[len(path)-1]
		if first.I != 0 || first.J != 0 || last.I != n-1 || last.J != m-1 {
			return false
		}
		// Monotone, unit steps.
		for i := 1; i < len(path); i++ {
			di := path[i].I - path[i-1].I
			dj := path[i].J - path[i-1].J
			if di < 0 || dj < 0 || di > 1 || dj > 1 || (di == 0 && dj == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDTWBandMatchesUnconstrainedWhenWide(t *testing.T) {
	r := rng.New(5)
	a := make(Series, 40)
	b := make(Series, 40)
	for i := range a {
		a[i] = r.Float64()
		b[i] = r.Float64()
	}
	cFull, _, _ := DTW(a, b, 0)
	cBand, _, _ := DTW(a, b, 40)
	if math.Abs(cFull-cBand) > 1e-12 {
		t.Errorf("wide band cost %v != unconstrained %v", cBand, cFull)
	}
	// A narrow band can only raise the cost.
	cNarrow, _, err := DTW(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cNarrow < cFull-1e-12 {
		t.Errorf("narrow band cost %v below optimum %v", cNarrow, cFull)
	}
}

func TestDTWUnequalLengths(t *testing.T) {
	a := Series{1, 2, 3}
	b := Series{1, 1, 2, 2, 3, 3}
	if _, _, err := DTW(a, b, 1); err != nil {
		t.Fatalf("banded DTW on unequal lengths: %v", err)
	}
}

// dtwFull is the original full-matrix DTW: it allocates and fills the whole
// (n+1)×(m+1) cost matrix. It is the oracle the banded DTW must match
// bitwise, for any input and band.
func dtwFull(a, b Series, window int) (cost float64, path []DTWPath, err error) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, nil, ErrDTWEmpty
	}
	if window <= 0 {
		window = n + m // effectively unconstrained
	}
	// Ensure the band is wide enough to reach the corner when n != m.
	diff := n - m
	if diff < 0 {
		diff = -diff
	}
	if window < diff+1 {
		window = diff + 1
	}

	inf := math.Inf(1)
	d := make([][]float64, n+1)
	for i := range d {
		d[i] = make([]float64, m+1)
		for j := range d[i] {
			d[i][j] = inf
		}
	}
	d[0][0] = 0
	for i := 1; i <= n; i++ {
		jLo := i - window
		if jLo < 1 {
			jLo = 1
		}
		jHi := i + window
		if jHi > m {
			jHi = m
		}
		for j := jLo; j <= jHi; j++ {
			c := math.Abs(a[i-1] - b[j-1])
			best := d[i-1][j-1]
			if d[i-1][j] < best {
				best = d[i-1][j]
			}
			if d[i][j-1] < best {
				best = d[i][j-1]
			}
			d[i][j] = c + best
		}
	}
	if math.IsInf(d[n][m], 1) {
		return 0, nil, errors.New("timeseries: DTW band excluded the corner")
	}

	// Backtrack the optimal path.
	i, j := n, m
	for i > 0 && j > 0 {
		path = append(path, DTWPath{i - 1, j - 1})
		diag, up, left := d[i-1][j-1], d[i-1][j], d[i][j-1]
		switch {
		case diag <= up && diag <= left:
			i, j = i-1, j-1
		case up <= left:
			i--
		default:
			j--
		}
	}
	// Reverse into forward order.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return d[n][m], path, nil
}

// checkDTWMatchesFull fails t unless DTW — in a fresh band buffer and in
// al's, left over from earlier calls — and the full-matrix oracle agree
// bitwise on the cost, the whole path and whether they error.
func checkDTWMatchesFull(t *testing.T, al *Aligner, a, b Series, window int) {
	t.Helper()
	wantCost, wantPath, wantErr := dtwFull(a, b, window)
	fresh, _, _ := DTW(a, b, window)
	cost, path, err := al.dtw(a, b, window)
	if math.Float64bits(fresh) != math.Float64bits(cost) {
		t.Fatalf("n=%d m=%d window=%d: cost %v in a fresh buffer, %v in a reused one", len(a), len(b), window, fresh, cost)
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("n=%d m=%d window=%d: err = %v, oracle err = %v", len(a), len(b), window, err, wantErr)
	}
	if math.Float64bits(cost) != math.Float64bits(wantCost) {
		t.Fatalf("n=%d m=%d window=%d: cost = %v (%#x), oracle %v (%#x)", len(a), len(b), window, cost, math.Float64bits(cost), wantCost, math.Float64bits(wantCost))
	}
	if len(path) != len(wantPath) {
		t.Fatalf("n=%d m=%d window=%d: path length %d, oracle %d", len(a), len(b), window, len(path), len(wantPath))
	}
	for k := range path {
		if path[k] != wantPath[k] {
			t.Fatalf("n=%d m=%d window=%d: path[%d] = %v, oracle %v", len(a), len(b), window, k, path[k], wantPath[k])
		}
	}
}

func TestDTWBandedMatchesFull(t *testing.T) {
	r := rng.New(14)
	// Coarse values make ties (the backtrack's tie-breaks) common; the
	// specials exercise the NaN and ±Inf comparisons of both passes.
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	gen := func(n int, poison bool) Series {
		s := make(Series, n)
		for i := range s {
			if r.Intn(2) == 0 {
				s[i] = float64(r.Intn(4))
			} else {
				s[i] = r.Gaussian(0, 10)
			}
		}
		if poison {
			for k := r.Intn(3) + 1; k > 0; k-- {
				s[r.Intn(n)] = specials[r.Intn(len(specials))]
			}
		}
		return s
	}
	var al Aligner
	for c := 0; c < 10000; c++ {
		n, m := r.Intn(70)+1, r.Intn(70)+1
		window := r.Intn(96) - 5 // −5…90: unconstrained, narrow, ≥ max(n, m)
		poison := r.Intn(5) == 0
		a := gen(n, poison && r.Intn(2) == 0)
		b := gen(m, poison)
		checkDTWMatchesFull(t, &al, a, b, window)
	}
}

// FuzzDTW checks the banded DTW against the full-matrix oracle on arbitrary
// float bit patterns, lengths and bands. data is read as little-endian
// float64s; the first split%(count+1) of them form a, the rest b.
func FuzzDTW(f *testing.F) {
	f.Add([]byte{}, uint8(0), int16(0))
	var al Aligner
	f.Fuzz(func(t *testing.T, data []byte, split uint8, window int16) {
		vals := make(Series, 0, len(data)/8)
		for len(data) >= 8 && len(vals) < 128 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		k := int(split) % (len(vals) + 1)
		checkDTWMatchesFull(t, &al, vals[:k], vals[k:], int(window))
	})
}

func TestAlignedRelErrorAllocs(t *testing.T) {
	ref := randomSeries(3000, 3)
	target := randomSeries(3000, 4)
	var al Aligner
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := al.AlignedRelError(ref, target, 750, 1); err != nil {
			t.Fatal(err)
		}
	})
	// A reused Aligner allocates only the path.
	if allocs > 1 {
		t.Errorf("Aligner.AlignedRelError at n=3000, band 750: %v allocs per call, want ≤ 1", allocs)
	}
}

func TestAlignedRelError(t *testing.T) {
	ref := Series{100, 100, 100, 100}
	target := Series{110, 110, 110, 110} // uniform +10%
	e, err := AlignedRelError(ref, target, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-0.10) > 1e-9 {
		t.Errorf("error = %v, want 0.10", e)
	}
	// Identical series → zero error.
	e, _ = AlignedRelError(ref, ref, 0, 1)
	if e != 0 {
		t.Errorf("self error = %v", e)
	}
}

func TestAlignedRelErrorFloor(t *testing.T) {
	ref := Series{0, 0}
	target := Series{5, 5}
	e, err := AlignedRelError(ref, target, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-0.5) > 1e-9 {
		t.Errorf("floored error = %v, want 0.5", e)
	}
}

func TestNormalizedError(t *testing.T) {
	if got := NormalizedError(0.40, 0.05); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("normalized = %v", got)
	}
	if NormalizedError(0.03, 0.05) != 0 {
		t.Error("normalized error must floor at 0")
	}
}

func BenchmarkDTW256(b *testing.B) {
	r := rng.New(1)
	a := make(Series, 256)
	c := make(Series, 256)
	for i := range a {
		a[i] = r.Float64()
		c[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = DTW(a, c, 16)
	}
}
