package main

import "testing"

// windowsOf lists the engine's windows for a stream of n intervals, as
// [start, end) pairs: one per hop once a full window is in, plus a tail
// window over the last window's worth of intervals.
func windowsOf(n, window, hop int) [][2]int {
	if n < window {
		return [][2]int{{0, n}}
	}
	var ws [][2]int
	for s := 0; s+window <= n; s += hop {
		ws = append(ws, [2]int{s, s + window})
	}
	if (n-window)%hop != 0 {
		ws = append(ws, [2]int{n - window, n})
	}
	return ws
}

func TestWantWindows(t *testing.T) {
	for _, tc := range []struct{ n, window, hop, want int }{
		{5, 24, 4, 1},  // shorter than one window: one partial window
		{24, 24, 4, 1}, // exactly one window
		{28, 24, 4, 2}, // ends on a hop
		{30, 24, 4, 3}, // tail window after the last hop
		{120000, 24, 4, 29995},
		{3000, 24, 4, 745},
	} {
		if got := wantWindows(tc.n, tc.window, tc.hop); got != tc.want {
			t.Errorf("wantWindows(%d, %d, %d) = %d, want %d", tc.n, tc.window, tc.hop, got, tc.want)
		}
		if got := len(windowsOf(tc.n, tc.window, tc.hop)); got != tc.want {
			t.Errorf("windowsOf(%d, %d, %d) has %d windows, want %d", tc.n, tc.window, tc.hop, got, tc.want)
		}
	}
}

// TestNonFiniteWindows checks the failure count against a direct scan of
// every window for every placement of one or two bad intervals.
func TestNonFiniteWindows(t *testing.T) {
	for _, n := range []int{10, 24, 30, 61} {
		ws := windowsOf(n, 24, 4)
		for a := 0; a < n; a++ {
			for _, b := range []int{a, (a + 7) % n} {
				bad := make([]bool, n)
				bad[a], bad[b] = true, true
				want := 0
				for _, w := range ws {
					for i := w[0]; i < w[1]; i++ {
						if bad[i] {
							want++
							break
						}
					}
				}
				if got := nonFiniteWindows(bad, 24, 4); got != want {
					t.Fatalf("n=%d bad at %d,%d: %d windows, want %d", n, a, b, got, want)
				}
			}
		}
	}
	if got := nonFiniteWindows(make([]bool, 100), 24, 4); got != 0 {
		t.Fatalf("all finite: %d windows, want 0", got)
	}
}
