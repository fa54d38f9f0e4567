package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. A traced request's spans form a tree: a parent
// span is a call whose work includes its children's, and the children
// are replayed one layer down after the parent returned. Self time is
// the parent's duration minus the part its children cover.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a request's root
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(req, parent int32, name string) int32 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) finish(id int32) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// covered is the length of the union of the spans' intervals, so
// children that ran in parallel are not counted twice.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total int64
	curS, curE := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > curE {
			total += curE - curS
			curS, curE = x.Start, x.End
			continue
		}
		curE = max(curE, x.End)
	}
	return time.Duration(total + curE - curS)
}

// spanTimes computes, for the spans of one request (indexed by
// position), each span's self time — its duration minus the union of
// its children's intervals, never negative — and its wall share: self
// time scaled down where sibling subtrees ran in parallel, so that the
// wall shares of a request add up to its root's duration when every
// parent outlasts its children.
func spanTimes(spans []span) (self, wall []time.Duration) {
	pos := make(map[int32]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	children := make([][]span, len(spans))
	for _, s := range spans {
		if p, ok := pos[s.Parent]; ok {
			children[p] = append(children[p], s)
		}
	}
	self = make([]time.Duration, len(spans))
	weight := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = max(s.dur()-covered(children[i]), 0)
		weight[i] = 1
	}
	// Parents precede children in recording order, so one forward pass
	// propagates weights from the root down.
	for i := range spans {
		kids := children[i]
		var sum time.Duration
		for _, k := range kids {
			sum += k.dur()
		}
		if sum == 0 {
			continue
		}
		share := float64(covered(kids)) / float64(sum)
		for _, k := range kids {
			weight[pos[k.ID]] = weight[i] * share
		}
	}
	wall = make([]time.Duration, len(spans))
	for i := range spans {
		wall[i] = time.Duration(float64(self[i]) * weight[i])
	}
	return self, wall
}

// layerTimes groups the spans by request and returns, per span name,
// the per-request sums of self time (one entry per request that
// called the layer), plus per request the root duration and the sum of
// all wall shares.
type layerTimes struct {
	self      map[string][]time.Duration
	roots     []time.Duration
	accounted []time.Duration
}

func analyze(spans []span, rootName string) layerTimes {
	byReq := map[int32][]span{}
	var order []int32
	for _, s := range spans {
		if _, ok := byReq[s.Req]; !ok {
			order = append(order, s.Req)
		}
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	lt := layerTimes{self: map[string][]time.Duration{}}
	for _, r := range order {
		ss := byReq[r]
		if ss[0].Name != rootName {
			continue
		}
		self, wall := spanTimes(ss)
		per := map[string]time.Duration{}
		var acc time.Duration
		for i, s := range ss {
			per[s.Name] += self[i]
			acc += wall[i]
		}
		for name, d := range per {
			lt.self[name] = append(lt.self[name], d)
		}
		lt.roots = append(lt.roots, ss[0].dur())
		lt.accounted = append(lt.accounted, acc)
	}
	return lt
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
