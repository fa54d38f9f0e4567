package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ncq"
)

// meetKey is what an answer is checked on: which node of which member
// shard, at which ranking distance.
type meetKey struct {
	Source   string     `json:"source"`
	Shard    int        `json:"shard"`
	Node     ncq.NodeID `json:"node"`
	Distance int        `json:"distance"`
}

// page is one answer page as the checks see it.
type page struct {
	meets     []meetKey
	next      string
	truncated bool
}

func pageOf(res *ncq.Result) page {
	p := page{next: res.NextCursor, truncated: res.Truncated}
	for _, m := range res.Meets {
		p.meets = append(p.meets, meetKey{Source: m.Source, Shard: m.Shard, Node: m.Node, Distance: m.Distance})
	}
	return p
}

// compare reports how got differs from want. Cursors are compared when
// checkCursor is set; they embed the corpus generation, which only a
// node serving the reference's exact membership shares.
func compare(got, want page, checkCursor bool) error {
	if !slices.Equal(got.meets, want.meets) {
		return fmt.Errorf("meets differ: got %d %v, want %d %v", len(got.meets), head(got.meets), len(want.meets), head(want.meets))
	}
	if got.truncated != want.truncated {
		return fmt.Errorf("truncated = %t, want %t", got.truncated, want.truncated)
	}
	if checkCursor && got.next != want.next {
		return fmt.Errorf("next cursor = %q, want %q", got.next, want.next)
	}
	return nil
}

func head(m []meetKey) []meetKey { return m[:min(len(m), 3)] }

// expect computes every query's expected page from the reference
// corpus, and checks each Figure-6 probe pair against its planted
// distance, an oracle independent of the implementation. Page-two
// requests get their cursor from the reference's first page.
func expect(ctx context.Context, ref *ncq.Corpus, qs []*query) error {
	var first, second []*query
	for _, q := range qs {
		if q.after != nil {
			second = append(second, q)
		} else {
			first = append(first, q)
		}
	}
	if err := parallel(len(first), func(i int) error { return expectOne(ctx, ref, first[i]) }); err != nil {
		return err
	}
	for _, q := range second {
		q.wire.Cursor = q.after.want.next
		if q.wire.Cursor == "" {
			return fmt.Errorf("page-two request %s follows an untruncated page", q.after.body)
		}
		q.encode()
	}
	return parallel(len(second), func(i int) error { return expectOne(ctx, ref, second[i]) })
}

func expectOne(ctx context.Context, ref *ncq.Corpus, q *query) error {
	res, err := ref.Run(ctx, q.request())
	if err != nil {
		return fmt.Errorf("reference answer to %s: %w", q.body, err)
	}
	q.want = pageOf(res)
	if q.probe >= 0 && q.after == nil && (len(q.want.meets) == 0 || q.want.meets[0].Distance != q.probe) {
		q.wantErr = fmt.Sprintf("probe pair at planted distance %d: reference answer %v", q.probe, head(q.want.meets))
	}
	if q.followUp {
		r2 := q.request()
		r2.Cursor = res.NextCursor
		res2, err := ref.Run(ctx, r2)
		if err != nil {
			return fmt.Errorf("reference page two of %s: %w", q.body, err)
		}
		q.want2 = pageOf(res2)
	}
	return nil
}

// checkProbe holds a served answer to the planted distance.
func checkProbe(q *query, got page) error {
	if q.probe < 0 || q.after != nil {
		return nil
	}
	if len(got.meets) == 0 || got.meets[0].Distance != q.probe {
		return fmt.Errorf("probe pair at planted distance %d answered %v", q.probe, head(got.meets))
	}
	return nil
}

// parallel runs fn(0..n-1) on two goroutines and returns the first error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
