package timeseries

import (
	"fmt"
	"testing"

	"bayesperf/internal/rng"
)

func randomSeries(n int, seed uint64) Series {
	r := rng.New(seed)
	s := make(Series, n)
	for i := range s {
		s[i] = r.Gaussian(1000, 100)
	}
	return s
}

func benchDTW(b *testing.B, n, window int) {
	a := randomSeries(n, 1)
	c := randomSeries(n, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DTW(a, c, window); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTW256Unconstrained(b *testing.B)  { benchDTW(b, 256, 0) }
func BenchmarkDTW1024Unconstrained(b *testing.B) { benchDTW(b, 1024, 0) }
func BenchmarkDTW1024Band32(b *testing.B)        { benchDTW(b, 1024, 32) }

func BenchmarkAlignedRelError512(b *testing.B) {
	ref := randomSeries(512, 3)
	target := randomSeries(512, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AlignedRelError(ref, target, 64, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlignedRelError times the §6.2 metric at the report's band of
// n/4 in a reused Aligner, as each of the report's workers runs it: the
// evaluation layer's cost per alignment.
func BenchmarkAlignedRelError(b *testing.B) {
	for _, n := range []int{750, 1500, 3000} {
		ref := randomSeries(n, 3)
		target := randomSeries(n, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var al Aligner
			for i := 0; i < b.N; i++ {
				if _, err := al.AlignedRelError(ref, target, n/4, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
