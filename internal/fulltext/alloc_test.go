//go:build !race

package fulltext

// Built out under -race: the detector's instrumentation changes
// allocation counts.

import "testing"

// TestSearchSingleAlloc pins the core claim of the compact postings:
// a warm single-token search is a slice view plus exactly one copy —
// the returned []Hit — however many associations the token has.
func TestSearchSingleAlloc(t *testing.T) {
	idx := fig1Index(t)
	idx.Search("1999") // warm
	got := testing.AllocsPerRun(200, func() {
		if len(idx.Search("1999")) != 2 {
			t.Fatal("unexpected hit count")
		}
	})
	if got > 1 {
		t.Errorf("warm single-token Search allocates %.0f/op, pinned at <= 1", got)
	}
}

// TestScanAllocsSteadyState pins the pooled-bitset scan: once the pool
// is warm, a predicate query that matches nothing allocates nothing at
// all, and a matching one allocates only its result slice — O(results),
// like the posting-list searches.
func TestScanAllocsSteadyState(t *testing.T) {
	idx := fig1Index(t)
	idx.SearchFunc(func(string) bool { return false }) // warm the pool
	got := testing.AllocsPerRun(200, func() {
		if idx.SearchFunc(func(string) bool { return false }) != nil {
			t.Fatal("unexpected hits")
		}
	})
	// Steady state is 0; allow one re-allocation in case a GC empties
	// the pool mid-run.
	if got > 1 {
		t.Errorf("warm no-match scan allocates %.0f/op, pinned at <= 1", got)
	}
	got = testing.AllocsPerRun(200, func() {
		if len(idx.SearchFunc(func(v string) bool { return v == "1999" })) != 2 {
			t.Fatal("unexpected hit count")
		}
	})
	// The appends growing the two-hit result slice, plus pool headroom.
	if got > 3 {
		t.Errorf("warm matching scan allocates %.0f/op, pinned at <= 3", got)
	}
}

// TestSearchSubstringAllocs pins the indexed substring search: with the
// needle buffer and the token and row bitsets pooled, a warm search
// allocates exactly its result slice and the offset slice that
// index/suffixarray's Lookup returns (it has no append form), and a
// term that no dictionary token contains allocates nothing.
// AllocsPerRun divides by the run count, so a pool refill after a GC
// does not move the figures.
func TestSearchSubstringAllocs(t *testing.T) {
	idx := fig1Index(t)
	idx.SearchSubstring("Hack") // warm the pool
	got := testing.AllocsPerRun(200, func() {
		if len(idx.SearchSubstring("Hack")) != 2 {
			t.Fatal("unexpected hit count")
		}
	})
	if got > 2 {
		t.Errorf("warm SearchSubstring allocates %.0f/op, pinned at <= 2", got)
	}
	got = testing.AllocsPerRun(200, func() {
		if idx.SearchSubstring("absent") != nil {
			t.Fatal("unexpected hits")
		}
	})
	if got > 0 {
		t.Errorf("warm missing SearchSubstring allocates %.0f/op, pinned at 0", got)
	}
}
