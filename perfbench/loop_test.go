package main

import (
	"testing"
	"time"
)

// fakeClock is a scripted clock: Sleep overshoots by slack, and the
// operations under test advance it by their service time.
type fakeClock struct {
	now   time.Time
	slack time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d + c.slack) }

// TestOpenLoopChargesQueuedRequests stalls one request for 55 ms on a
// 10 ms schedule: every request that fell due during the stall must be
// charged the wait from its due time, until the loop catches up.
func TestOpenLoopChargesQueuedRequests(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	recs := openLoop(clk, start, 10*time.Millisecond, 10, func(i int) error {
		d := time.Millisecond
		if i == 2 {
			d = 55 * time.Millisecond
		}
		clk.now = clk.now.Add(d)
		return nil
	})
	// op 2 is sent at 20 and returns at 75; ops 3..7 fall due at 30..70
	// and go out back to back at 75, 76, ...; op 8 is due at 80 when
	// the connection is idle again.
	want := []time.Duration{1, 1, 55, 46, 37, 28, 19, 10, 1, 1}
	for i, w := range want {
		if got := recs[i].latency; got != w*time.Millisecond {
			t.Errorf("op %d latency %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if got := recs[3].late; got != 45*time.Millisecond {
		t.Errorf("op 3 late %v, want 45ms", got)
	}
}

// TestOpenLoopReportsTimerSlackAsLateness checks that the generator's
// own oversleep on an idle connection is reported as lateness and not
// charged to the system.
func TestOpenLoopReportsTimerSlackAsLateness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0), slack: 3 * time.Millisecond}
	recs := openLoop(clk, clk.now.Add(time.Millisecond), 10*time.Millisecond, 5, func(int) error {
		clk.now = clk.now.Add(time.Millisecond)
		return nil
	})
	for i, r := range recs {
		if r.latency != time.Millisecond || r.late != 3*time.Millisecond {
			t.Errorf("op %d: latency %v late %v, want 1ms and 3ms", i, r.latency, r.late)
		}
	}
}
