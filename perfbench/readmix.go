package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"energysched"
)

const (
	// writeRate and readRate are the open-loop rates of the read-mix
	// connections; on a 2-vCPU VM the process is about a quarter busy.
	writeRate = 100 // jobs/s
	readRate  = 400 // reads/s
	// freshStarts is how many times set-up runs.
	freshStarts = 9
)

// reader issues the i-th read of a phase; acked is how many jobs the
// writer has had acknowledged so far (their IDs are 0..acked-1).
type reader func(i, acked int) error

// mixResult is one read-mix phase.
type mixResult struct {
	writes, reads []opRecord
	acked         []energysched.Job
	span          time.Duration // first due time to last reply
}

// mixPhase runs the open-loop writer and reader side by side, each on
// its own connection, for as many requests as it is given.
func mixPhase(jobs []energysched.Job, nReads int, read reader, w *conn) *mixResult {
	res := &mixResult{}
	var acked atomic.Int64
	ctx := context.Background()
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		res.writes = openLoop(wallClock{}, start, time.Second/writeRate, len(jobs), func(i int) error {
			return w.do(func(api *energysched.Client) error {
				_, err := api.SubmitJob(ctx, spec(jobs[i], true))
				if err == nil {
					res.acked = append(res.acked, jobs[i])
					acked.Add(1)
				}
				return err
			})
		})
	}()
	go func() {
		defer wg.Done()
		res.reads = openLoop(wallClock{}, start, time.Second/readRate, nReads, func(i int) error {
			return read(i, int(acked.Load()))
		})
	}()
	wg.Wait()
	res.span = time.Since(start)
	return res
}

// httpReader cycles GET report, cluster, jobs/{id} and series over c.
// The full job list is left out: its size grows with history.
func httpReader(c *conn) reader {
	ctx := context.Background()
	return func(i, acked int) error {
		return c.do(func(api *energysched.Client) error {
			var err error
			switch kind := i % 4; {
			case kind == 1:
				_, err = api.Cluster(ctx)
			case kind == 2 && acked > 0:
				_, err = api.Job(ctx, (i/4*7919)%acked)
			case kind == 3:
				_, err = api.Series(ctx, energysched.SeriesQuery{Metric: "watts", Step: 3600})
			default:
				_, err = api.Report(ctx)
			}
			return err
		})
	}
}

// runReadMix is the read-mix workload: reads beside writes on one fresh
// durable fleet, both open loop, latency counted from each due time.
func runReadMix(e *env) (*outcome, error) {
	o := newOutcome()
	nWrites, nReads := int(e.seconds*writeRate), int(e.seconds*readRate)

	// Set-up: drawing the inputs and starting a fresh daemon, repeated.
	var starts samples
	var d *daemon
	var jobs []energysched.Job
	var err error
	for i := 0; i < freshStarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			runtime.GC() // keep earlier starts' garbage out of the next start and the peak
		}
		t0 := time.Now()
		if jobs, err = seededJobs(e.seed, 120, nWrites); err != nil {
			return nil, err
		}
		if d, _, err = startDaemon(filepath.Join(e.dir, "fresh"+strconv.Itoa(i)), false); err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	o.setup = starts.q(0.5)

	conns := newConns(d, 2)
	ph := mixPhase(jobs, nReads, httpReader(conns[1]), conns[0])
	o.wall = ph.span.Seconds()
	o.rss, err = peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.lat = latencies(ph.writes, ph.reads)
	countOps(&o.tally, ph.writes, ph.reads)
	w, r := latencies(ph.writes), latencies(ph.reads)
	o.logf("read-mix: %d writes/s + %d reads/s for %gs: admit_p50_ms=%.3f admit_p90_ms=%.3f admit_p99_ms=%.3f read_p50_ms=%.3f read_p90_ms=%.3f read_p99_ms=%.3f",
		writeRate, readRate, e.seconds, w.q(0.5), w.q(0.9), w.q(0.99), r.q(0.5), r.q(0.9), r.q(0.99))

	// Output check: online ≡ offline. The drained fleet's report must
	// equal the offline simulation of the acknowledged job stream.
	final, err := conns[0].api.Drain(context.Background())
	closeConns(conns)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("draining: %w", err)
	}
	want, err := offlineReport(ph.acked)
	if err != nil {
		return nil, err
	}
	for _, p := range checkOffline(final, want, &o.tally) {
		o.logf("read-mix check: %s", p)
	}

	if e.traced {
		traced, err := traceReads(e, o, jobs, nReads)
		if err != nil {
			return nil, err
		}
		post := traced.routes.route("post_jobs")
		o.layer["server.post_jobs_p50_us"] = post.q(0.5)
		o.layer["server.post_jobs_p99_us"] = post.q(0.99)
		o.layer["client.overhead_p50_us"] = traced.overhead.q(0.5)
		o.layer["trace_overhead_ratio"] = latencies(traced.writes, traced.reads).q(0.5)/o.lat.q(0.5) - 1
	}
	return o, nil
}

// tracedMix is a read-mix phase run with the handler and client
// instrumented.
type tracedMix struct {
	*mixResult
	routes   *routeTimer
	overhead samples
}

// traceReads measures the read path beside the open-loop write stream
// on fresh fleets: once over HTTP with the handler timed per route, once
// reading through the fleet's own API. It sets the server.get_* and
// fleet.read_* metrics and the generator's lateness, and returns the
// HTTP phase for the caller's own figures.
func traceReads(e *env, o *outcome, jobs []energysched.Job, nReads int) (*tracedMix, error) {
	d, _, err := startDaemon(filepath.Join(e.dir, "traced-mix"), true)
	if err != nil {
		return nil, err
	}
	conns := newConns(d, 2)
	ph := mixPhase(jobs, nReads, httpReader(conns[1]), conns[0])
	closeConns(conns)
	countOps(&o.tally, ph.writes, ph.reads)
	traced := &tracedMix{mixResult: ph, routes: d.routes, overhead: append(conns[0].overhead, conns[1].overhead...)}
	for _, route := range []string{"get_report", "get_cluster", "get_job", "get_series"} {
		s := d.routes.route(route)
		o.layer["server."+route+"_p50_us"] = s.q(0.5)
		o.layer["server."+route+"_p99_us"] = s.q(0.99)
	}
	var late samples
	for _, r := range append(ph.writes, ph.reads...) {
		late = append(late, ms(r.late))
	}
	o.layer["loadgen.late_p99_ms"] = late.q(0.99)
	if err := d.stop(); err != nil {
		return nil, err
	}

	if d, _, err = startDaemon(filepath.Join(e.dir, "direct-mix"), false); err != nil {
		return nil, err
	}
	defer d.stop()
	f, err := d.fleet()
	if err != nil {
		return nil, err
	}
	var service samples // µs per direct read, from send to return
	direct := func(i, acked int) error {
		t0 := time.Now()
		var err error
		switch kind := i % 3; {
		case kind == 1:
			_, err = f.Cluster()
		case kind == 2 && acked > 0:
			_, err = f.Job((i / 3 * 7919) % acked)
		default:
			_, err = f.Report()
		}
		service = append(service, us(time.Since(t0)))
		return err
	}
	w := newConns(d, 1)
	dph := mixPhase(jobs, nReads, direct, w[0])
	closeConns(w)
	countOps(&o.tally, dph.writes, dph.reads)
	o.layer["fleet.read_p50_us"] = service.q(0.5)
	o.layer["fleet.read_p99_us"] = service.q(0.99)
	return traced, nil
}
