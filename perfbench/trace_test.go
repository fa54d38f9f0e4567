package main

import (
	"testing"
	"time"
)

func ms(n int64) int64 { return n * int64(time.Millisecond) }

// Two children overlapping in time cover their union once: a 10 ms
// parent with children at [0,4] and [2,6] ms has 4 ms of self time.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "results", Start: 0, End: ms(10)},
		{ID: 1, Parent: 0, Name: "member", Start: 0, End: ms(4)},
		{ID: 2, Parent: 0, Name: "member", Start: ms(2), End: ms(6)},
	}
	self, wall := spanTimes(spans)
	if self[0] != 4*time.Millisecond {
		t.Fatalf("parent self = %v, want 4ms", self[0])
	}
	if self[1] != 4*time.Millisecond || self[2] != 4*time.Millisecond {
		t.Fatalf("leaf self = %v, %v, want 4ms each", self[1], self[2])
	}
	// The children's 8 ms of work took 6 ms of wall time.
	if wall[1]+wall[2] != 6*time.Millisecond {
		t.Fatalf("children wall shares = %v + %v, want 6ms", wall[1], wall[2])
	}
	var total time.Duration
	for _, w := range wall {
		total += w
	}
	if total != 10*time.Millisecond {
		t.Fatalf("wall shares sum to %v, want the root's 10ms", total)
	}
}

// Children replayed after their parent are placed on their own
// timeline: only their lengths and overlaps matter.
func TestSelfTimeOfReplayedChildren(t *testing.T) {
	spans := []span{
		{ID: 5, Parent: -1, Req: 1, Name: "net", Start: 0, End: ms(10)},
		{ID: 6, Parent: 5, Req: 1, Name: "server", Start: ms(20), End: ms(27)},
		{ID: 7, Parent: 6, Req: 1, Name: "results", Start: ms(30), End: ms(35)},
		{ID: 8, Parent: 6, Req: 1, Name: "results", Start: ms(33), End: ms(36)}, // overlaps 7
	}
	self, _ := spanTimes(spans)
	want := []time.Duration{3, 1, 5, 3}
	for i := range want {
		if self[i] != want[i]*time.Millisecond {
			t.Errorf("span %d self = %v, want %vms", spans[i].ID, self[i], want[i])
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "server", Start: 0, End: ms(2)},
		{ID: 1, Parent: 0, Name: "results", Start: ms(5), End: ms(9)},
	}
	self, _ := spanTimes(spans)
	if self[0] != 0 {
		t.Fatalf("parent shorter than its child: self = %v, want 0", self[0])
	}
}

func TestAnalyzeGroupsByRequest(t *testing.T) {
	tr := []span{
		{ID: 0, Parent: -1, Req: 0, Name: "net", Start: 0, End: ms(10)},
		{ID: 1, Parent: 0, Req: 0, Name: "server", Start: ms(10), End: ms(16)},
		{ID: 2, Parent: -1, Req: 1, Name: "net", Start: ms(20), End: ms(24)},
	}
	lt := analyze(tr, "net")
	if len(lt.roots) != 2 || lt.roots[0] != 10*time.Millisecond || lt.roots[1] != 4*time.Millisecond {
		t.Fatalf("roots = %v", lt.roots)
	}
	if got := lt.self["net"]; len(got) != 2 || got[0] != 4*time.Millisecond || got[1] != 4*time.Millisecond {
		t.Fatalf("net self = %v", got)
	}
	if got := lt.self["server"]; len(got) != 1 || got[0] != 6*time.Millisecond {
		t.Fatalf("server self = %v", got)
	}
}
