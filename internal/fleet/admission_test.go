package fleet

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energysched"
)

// The admission queue contract: the rate limit and the bounded queue
// shed with honest 429 + Retry-After, concurrent submitters share
// event-loop turns without dropping an accepted job, and a WAL fault
// inside a batch rejects that batch atomically.

func TestTokenBucket(t *testing.T) {
	if tb := newTokenBucket(0, 10); tb != nil {
		t.Fatal("rate 0 should disable the bucket")
	}
	tb := newTokenBucket(10, 5)
	if ra, ok := tb.take(5); !ok || ra != 0 {
		t.Fatalf("full bucket refused a burst-sized batch (ra=%d ok=%v)", ra, ok)
	}
	ra, ok := tb.take(1)
	if ok {
		t.Fatal("empty bucket admitted a job")
	}
	if ra < 1 {
		t.Fatalf("refusal carried Retry-After %d, want >= 1", ra)
	}
	// Refill: at 10 jobs/sec, 300ms buys ~3 tokens.
	time.Sleep(300 * time.Millisecond)
	if _, ok := tb.take(1); !ok {
		t.Fatal("bucket did not refill")
	}
}

func TestTokenBucketOversizedBatchGoesIntoDebt(t *testing.T) {
	tb := newTokenBucket(10, 5)
	// A batch larger than the burst admits against a full bucket (need
	// capped at burst) instead of being rejected forever...
	if _, ok := tb.take(20); !ok {
		t.Fatal("full bucket rejected an oversized batch")
	}
	// ...and the resulting debt throttles what follows.
	if _, ok := tb.take(1); ok {
		t.Fatal("bucket admitted straight after an oversized batch")
	}
}

// TestRateLimitShedsWith429: a rate-limited fleet sheds over-limit
// submits with a 429 fleet.Error carrying a Retry-After hint, and the
// shed counter surfaces on the metrics samples.
func TestRateLimitShedsWith429(t *testing.T) {
	f, err := Open("rl", Config{Policy: "SB", Seed: 1, RateLimit: 5, RateBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	submitN(t, f, 2, 0) // drains the burst
	at := 2.0 * 30
	_, serr := f.Submit(energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &at})
	var fe *Error
	if !errors.As(serr, &fe) || fe.Status != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit error = %v, want a 429 fleet.Error", serr)
	}
	if fe.RetryAfter < 1 {
		t.Fatalf("429 carried Retry-After %d, want >= 1", fe.RetryAfter)
	}
	if f.admitq.shedRate.Load() == 0 {
		t.Fatal("rate shed not counted")
	}
	// The shed job was never admitted: the fleet still holds exactly
	// the acknowledged two.
	info, err := f.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Jobs != 2 {
		t.Fatalf("fleet holds %d jobs after a shed, want 2", info.Jobs)
	}
}

// TestAdmitQueueShedsWith429: with the event loop wedged, the bounded
// admission queue fills and further submits shed with 429 instead of
// queueing without bound.
func TestAdmitQueueShedsWith429(t *testing.T) {
	f, err := Open("bq", Config{Policy: "SB", Seed: 1, AdmitQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Wedge the event loop so it cannot drain: queued requests pile up
	// in the depth-1 admission queue.
	gate := make(chan struct{})
	started := make(chan struct{})
	go f.do(func() { close(started); <-gate })
	<-started

	// Capacity while wedged: the one queue slot. The rest must shed.
	const inflight = 8
	var wg sync.WaitGroup
	var shed atomic.Int64
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := f.Submit(energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600})
			errs <- err
		}()
	}
	deadline := time.After(10 * time.Second)
	for shed.Load() == 0 {
		select {
		case err := <-errs:
			var fe *Error
			if errors.As(err, &fe) && fe.Status == http.StatusTooManyRequests {
				if fe.RetryAfter != 1 {
					t.Errorf("queue-full 429 carried Retry-After %d, want 1", fe.RetryAfter)
				}
				shed.Add(1)
			}
		case <-deadline:
			t.Fatal("no queue-full 429 within 10s of wedging the event loop")
		}
	}
	close(gate) // unwedge; the remaining submits complete normally
	wg.Wait()
	if f.admitq.shedQueue.Load() == 0 {
		t.Fatal("queue shed not counted")
	}
}

// TestConcurrentShardedSubmitDropsNothing: N goroutines hammering one
// fleet with nil-Submit jobs — every acknowledged admission must land
// (zero dropped accepted jobs) through the shared admission turns.
func TestConcurrentShardedSubmitDropsNothing(t *testing.T) {
	f, err := Open("cc", Config{Policy: "SB", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// nil Submit = "virtual now": always admissible, so every
				// acknowledgment is an accepted job.
				_, err := f.Submit(energysched.JobSpec{
					CPU: 100 + float64((g+i)%3)*100, Mem: 5, Duration: 600,
				})
				if err != nil {
					t.Errorf("worker %d submit %d: %v", g, i, err)
					return
				}
				accepted.Add(1)
			}
		}(g)
	}
	wg.Wait()
	info, err := f.Info()
	if err != nil {
		t.Fatal(err)
	}
	if int64(info.Jobs) != accepted.Load() || accepted.Load() != workers*perWorker {
		t.Fatalf("fleet holds %d jobs, %d acknowledged, %d submitted — accepted jobs were dropped",
			info.Jobs, accepted.Load(), workers*perWorker)
	}
	if f.admitq.merged.Load() < workers*perWorker {
		t.Fatalf("admission turns applied %d requests, want >= %d", f.admitq.merged.Load(), workers*perWorker)
	}
}

// TestAdmissionTurnOrdersBySubmitTime: requests that share one
// admission turn apply in submit-time order, not arrival order. Three
// submits queue behind a wedged event loop latest-first; applied in
// arrival order, the first would advance the max-pacing watermark past
// the other two and reject them with 409s.
func TestAdmissionTurnOrdersBySubmitTime(t *testing.T) {
	f, err := Open("order", Config{Policy: "SB", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	go f.do(func() { close(started); <-gate })
	<-started

	submits := []float64{300, 200, 100}
	errs := make(chan error, len(submits))
	for i, at := range submits {
		go func() {
			_, err := f.Submit(energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &at})
			errs <- err
		}()
		// Wait until this request is queued so arrival order is fixed.
		for len(f.admitq.ch) < i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)
	for range submits {
		if err := <-errs; err != nil {
			t.Fatalf("submit sharing a turn: %v", err)
		}
	}
	jobs, err := f.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{100, 200, 300} {
		if jobs[i].Submit != want {
			t.Fatalf("job %d submitted at %v, want %v (jobs %+v)", i, jobs[i].Submit, want, jobs)
		}
	}
	if turns := f.admitq.turns.Load(); turns != 1 {
		t.Fatalf("three queued submits took %d admission turns, want 1", turns)
	}
}

// TestWALFaultMidBatchStaysAtomicAndByteIdentical: a WAL disk-full
// fault lands at each fault point of one 3-job batch — the append of
// its first, second and third record, and its flush — while the
// batches around it succeed. The faulted batch must reject atomically
// (no partial admission), and a kill/reopen must recover byte-identical
// to an in-memory fleet fed only the surviving batches.
func TestWALFaultMidBatchStaysAtomicAndByteIdentical(t *testing.T) {
	// Five sequential 3-job batches with increasing submit times; the
	// third is faulted. Each record is one "append" and each batch one
	// "sync", so batch 3 owns appends 7-9 and sync 3.
	const faulted = 2
	batch := func(from int) []energysched.JobSpec {
		specs := make([]energysched.JobSpec, 3)
		for i := range specs {
			at := float64(from+i) * 30
			specs[i] = energysched.JobSpec{
				CPU: 100 + float64((from+i)%3)*100, Mem: 5, Duration: 600, Submit: &at,
			}
		}
		return specs
	}
	ref, err := Open("ref", Config{Policy: "SB", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for b := 0; b < 5; b++ {
		if b == faulted {
			continue
		}
		if _, err := ref.SubmitBatch(batch(b * 3)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Drain()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		op   string
		nth  int64 // the op's ordinal across the fleet's life
	}{
		{"append-record-1", "append", 7},
		{"append-record-2", "append", 8},
		{"append-record-3", "append", 9},
		{"sync", "sync", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir() + "/f"
			var seen atomic.Int64
			// No compaction: the WAL keeps every record, so reopening
			// replays exactly what the rollback left on disk.
			cfg := testConfig(dir)
			cfg.SnapshotInterval = 0
			cfg.WALFault = func(op string) error {
				if op == tc.op && seen.Add(1) == tc.nth {
					return errors.New("no space left on device")
				}
				return nil
			}
			f, err := Open("f", cfg)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 5; b++ {
				_, err := f.SubmitBatch(batch(b * 3))
				if b == faulted {
					var fe *Error
					if !errors.As(err, &fe) || fe.Status != http.StatusInternalServerError {
						t.Fatalf("faulted batch error = %v, want a 500", err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}
			if seen.Load() < tc.nth {
				t.Fatalf("fault point %s #%d never reached (%d seen)", tc.op, tc.nth, seen.Load())
			}
			// Atomicity: 4 surviving batches of 3 — none of the faulted
			// batch's jobs leaked in.
			info, err := f.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Jobs != 12 {
				t.Fatalf("fleet holds %d jobs after the mid-batch fault, want 12", info.Jobs)
			}
			f.Close()

			cfg.WALFault = nil
			f2, err := Open("f", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f2.Close()
			got, err := f2.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("post-fault recovery diverged from the surviving batches:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
