package main

import (
	"sync"
	"testing"
	"time"
)

// A request that waits behind a stalled sender is timed from when it
// was due, not from when it finally left.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	ops := make([]*op, 4)
	for i := range ops {
		ops[i] = &op{}
	}
	var mu sync.Mutex
	var ts []timing
	openLoop([]lane{{ops: ops, rate: 200, senders: 1}}, func(o *op, due time.Time) {
		tm := timing{due: due, sent: time.Now()}
		if o == ops[0] {
			time.Sleep(60 * time.Millisecond) // the stall
		}
		tm.done = time.Now()
		mu.Lock()
		ts = append(ts, tm)
		mu.Unlock()
	})
	if len(ts) != 4 {
		t.Fatalf("%d requests sent, want 4", len(ts))
	}
	// ops[1] was due 5 ms after ops[0] but left only after the 60 ms
	// stall: about 55 ms late, and its latency includes that wait.
	if got := ts[1].late(); got < 45*time.Millisecond {
		t.Errorf("request 1 late by %v, want >= 45ms", got)
	}
	if got := ts[1].latency(); got < ts[1].late() || got < 45*time.Millisecond {
		t.Errorf("request 1 latency %v does not include its %v wait", got, ts[1].late())
	}
	for i := 1; i < len(ts); i++ {
		if d := ts[i].due.Sub(ts[i-1].due); d < 4*time.Millisecond || d > 6*time.Millisecond {
			t.Errorf("requests %d and %d due %v apart, want the 5ms schedule", i-1, i, d)
		}
	}
}

func TestTimingLatencyIncludesQueueing(t *testing.T) {
	due := time.Unix(100, 0)
	tm := timing{due: due, sent: due.Add(30 * time.Millisecond), done: due.Add(32 * time.Millisecond)}
	if tm.latency() != 32*time.Millisecond || tm.late() != 30*time.Millisecond {
		t.Fatalf("latency %v late %v, want 32ms and 30ms", tm.latency(), tm.late())
	}
}
