package main

import "testing"

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so sorting is exercised
	}
	return s
}

// The tail is the highest percentile, at most p99, with at least ten
// samples strictly beyond it.
func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 57, 100, 500, 999, 1000, 1001, 5000} {
		s := seq(n)
		v, pct := s.tail()
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: p%.2f=%v leaves %d samples beyond, want >= %d", n, pct, v, beyond, tailBeyond)
		}
		if n >= 1000 && pct != 99 {
			t.Errorf("n=%d: tail read at p%.2f, want p99", n, pct)
		}
		if n < 1000 && beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond p%.2f; a higher percentile would still leave %d", n, beyond, pct, tailBeyond)
		}
	}
}

func TestTailWithTooFewSamplesIsTheMaximum(t *testing.T) {
	v, pct := seq(10).tail()
	if v != 10 || pct != 100 {
		t.Fatalf("tail of 10 samples = %v at p%v, want the maximum 10 at p100", v, pct)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {1, 1}, {100, 100}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (sample{3, 1, 2}).median(); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}
