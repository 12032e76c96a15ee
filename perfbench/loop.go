package main

import (
	"sync"
	"time"
)

// clock is the time source of the load generators; tests substitute a
// fake one to script stalls.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// opRecord is one timed operation.
type opRecord struct {
	// latency runs until the reply, from when the operation was sent,
	// or in an open loop from its due time if it had to queue.
	latency time.Duration
	// late is how far behind schedule the open-loop generator sent it.
	late time.Duration
	err  error
}

// openLoop issues n operations on the calling goroutine, the i-th due
// at start + i·period, whether or not earlier ones have finished their
// turn. An operation that falls due while an earlier one is still
// running is sent as soon as that one returns, and its latency counts
// from its due time, so one stalled request charges every request
// queued behind it instead of hiding the stall (coordinated omission).
// An operation whose connection was idle at its due time counts from
// when it was sent, so the generator's own timer slack is reported as
// lateness, not charged to the system.
func openLoop(clk clock, start time.Time, period time.Duration, n int, op func(i int) error) []opRecord {
	out := make([]opRecord, n)
	var prevDone time.Time
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		sent := clk.Now()
		err := op(i)
		done := clk.Now()
		from := sent
		if prevDone.After(due) {
			from = due
		}
		out[i] = opRecord{latency: done.Sub(from), late: sent.Sub(due), err: err}
		prevDone = done
	}
	return out
}

// closedLoop runs one worker per job list concurrently; each sends its
// next job only after the previous reply. It returns every worker's
// records in job order and the wall time until the last reply.
func closedLoop[J any](lists [][]J, op func(worker int, job J) error) ([][]opRecord, time.Duration) {
	out := make([][]opRecord, len(lists))
	var wg sync.WaitGroup
	start := time.Now()
	for w := range lists {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			recs := make([]opRecord, len(lists[w]))
			for i, j := range lists[w] {
				t0 := time.Now()
				err := op(w, j)
				recs[i] = opRecord{latency: time.Since(t0), err: err}
			}
			out[w] = recs
		}(w)
	}
	wg.Wait()
	return out, time.Since(start)
}
