package fleet

import (
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"energysched"
	"energysched/internal/metrics"
)

// Admission and ingest backpressure.
//
// A fleet's event loop serializes everything, which is what makes the
// simulation deterministic. Submit and SubmitBatch therefore hand their
// request to one bounded queue that the loop itself drains: when a
// request arrives, the loop picks up every request already waiting (up
// to maxMergeTurn), applies them in one turn in a deterministic order
// (earliest submit time first, ingest sequence as the tie break), and
// replies to each. N concurrent submitters share one turn instead of
// taking N; a sequential submitter sees exactly its own order.
//
// The same entry point is where ingest hygiene lives: an optional
// token-bucket rate limit (Config.RateLimit/RateBurst) and the bounded
// queue both shed with 429 + Retry-After through fleet.Error instead
// of queueing without bound. A shed request was never admitted, never
// logged, and never acknowledged — zero accepted jobs are dropped
// under overload.

// tokenBucket is a wall-clock token bucket: take withdraws tokens for
// a batch, refilling at rate tokens/second up to burst.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// newTokenBucket returns nil when rate <= 0 (unlimited). A burst <= 0
// defaults to one second's worth of tokens (at least 1), so a full
// bucket always admits at least one job.
func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if burst <= 0 {
		b = math.Ceil(rate)
	}
	if b < 1 {
		b = 1
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b, last: time.Now()}
}

// take withdraws n tokens. A batch larger than the burst is admitted
// whenever the bucket is full — the bucket goes into debt and later
// requests wait it out — so a single oversized batch cannot be
// rejected forever. On refusal it returns the Retry-After hint in
// whole seconds (>= 1).
func (tb *tokenBucket) take(n int) (retryAfter int, ok bool) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := time.Now()
	tb.tokens = math.Min(tb.burst, tb.tokens+now.Sub(tb.last).Seconds()*tb.rate)
	tb.last = now
	need := float64(n)
	if need > tb.burst {
		need = tb.burst
	}
	if tb.tokens >= need {
		tb.tokens -= float64(n)
		return 0, true
	}
	ra := int(math.Ceil((need - tb.tokens) / tb.rate))
	if ra < 1 {
		ra = 1
	}
	return ra, false
}

// admitRequest is one Submit/SubmitBatch waiting for the event loop.
type admitRequest struct {
	specs []energysched.JobSpec
	// seq is the monotone ingest sequence: the turn's tie break.
	seq uint64
	// submit is the turn's primary sort key: the batch's first submit
	// time, -Inf for a nil-Submit ("now") request.
	submit float64
	// reply is buffered (capacity 1) so the loop never blocks on a
	// submitter that already gave up.
	reply chan admitReply
}

type admitReply struct {
	out []energysched.JobStatus
	err error
}

// submitKey derives a request's turn-order sort key. Batch submit
// times are validated non-decreasing, so the first spec carries the
// batch's earliest time; a nil Submit means "the current virtual now",
// which must order before any explicit future submit or applying the
// future batch first would advance the clock past it (max pacing) and
// manufacture a spurious 409.
func submitKey(specs []energysched.JobSpec) float64 {
	if len(specs) == 0 || specs[0].Submit == nil {
		return math.Inf(-1)
	}
	return *specs[0].Submit
}

// maxMergeTurn bounds how many requests one admission turn applies, so
// a firehose of concurrent submitters cannot starve the event loop's
// other callers (reads, pacing ticks) indefinitely.
const maxMergeTurn = 64

// admitQueue is one fleet's admission front end: the rate limit, the
// bounded queue the event loop drains, and their counters.
type admitQueue struct {
	ch     chan *admitRequest
	bucket *tokenBucket // nil = unlimited
	seq    atomic.Uint64

	shedRate  atomic.Uint64 // requests rejected by the token bucket
	shedQueue atomic.Uint64 // requests rejected by a full queue
	turns     atomic.Uint64 // event-loop turns that applied admissions
	merged    atomic.Uint64 // requests applied across those turns
}

// submit runs one request through rate limiting and the bounded queue,
// and waits for the event loop's answer.
func (f *Fleet) submit(specs []energysched.JobSpec) ([]energysched.JobStatus, error) {
	q := &f.admitq
	if q.bucket != nil && len(specs) > 0 {
		if ra, ok := q.bucket.take(len(specs)); !ok {
			q.shedRate.Add(1)
			return nil, &Error{Status: http.StatusTooManyRequests,
				Msg: "admission rate limit exceeded", RetryAfter: ra}
		}
	}
	req := &admitRequest{
		specs:  specs,
		seq:    q.seq.Add(1),
		submit: submitKey(specs),
		reply:  make(chan admitReply, 1),
	}
	select {
	case q.ch <- req:
	default:
		q.shedQueue.Add(1)
		return nil, &Error{Status: http.StatusTooManyRequests,
			Msg: "admission queue full", RetryAfter: 1}
	}
	select {
	case rep := <-req.reply:
		return rep.out, rep.err
	case <-f.stopc:
		return nil, ErrClosed
	}
}

// admitTurn applies first plus every request already waiting, up to
// maxMergeTurn, in one event-loop turn. Call only from the event loop.
func (f *Fleet) admitTurn(first *admitRequest) {
	batch := []*admitRequest{first}
gather:
	for len(batch) < maxMergeTurn {
		select {
		case req := <-f.admitq.ch:
			batch = append(batch, req)
		default:
			break gather
		}
	}
	// Deterministic order: earliest submit time first, ingest sequence
	// as the tie break. Under max pacing, applying a later-submit
	// request first would advance virtual time past an earlier-submit
	// one and reject it with a 409 that sequential submission would
	// never produce.
	sort.Slice(batch, func(a, b int) bool {
		if batch[a].submit != batch[b].submit {
			return batch[a].submit < batch[b].submit
		}
		return batch[a].seq < batch[b].seq
	})
	f.admitq.turns.Add(1)
	f.admitq.merged.Add(uint64(len(batch)))
	for _, req := range batch {
		out, err := f.admit(req.specs)
		req.reply <- admitReply{out: out, err: err}
	}
}

// metricsSamples appends the queue's Prometheus samples: depth and
// capacity, shed counters by reason, and per-turn amortization. Call
// only from the event loop.
func (q *admitQueue) metricsSamples(in []metrics.PromSample) []metrics.PromSample {
	return append(in,
		metrics.PromSample{Name: "energysched_admit_queue_depth", Help: "Requests waiting in the bounded admission queue.",
			Kind: metrics.PromGauge, Value: float64(len(q.ch))},
		metrics.PromSample{Name: "energysched_admit_queue_capacity", Help: "Bounded depth of the admission queue.",
			Kind: metrics.PromGauge, Value: float64(cap(q.ch))},
		metrics.PromSample{Name: "energysched_admit_shed_total", Help: "Admission requests shed with 429 by reason.",
			Kind: metrics.PromCounter, Labels: map[string]string{"reason": "rate"}, Value: float64(q.shedRate.Load())},
		metrics.PromSample{Name: "energysched_admit_shed_total", Help: "Admission requests shed with 429 by reason.",
			Kind: metrics.PromCounter, Labels: map[string]string{"reason": "queue"}, Value: float64(q.shedQueue.Load())},
		metrics.PromSample{Name: "energysched_admit_merge_turns_total", Help: "Event-loop turns that applied admissions.",
			Kind: metrics.PromCounter, Value: float64(q.turns.Load())},
		metrics.PromSample{Name: "energysched_admit_merged_requests_total", Help: "Admission requests applied in admission turns.",
			Kind: metrics.PromCounter, Value: float64(q.merged.Load())},
	)
}
