package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"energysched"
	"energysched/internal/fleet"
	"energysched/internal/server"
)

const (
	// historyJobs is how many admitted jobs the durable fleet holds
	// before the timed phase. The daemon re-simulates the whole history
	// on every start and walks it on every round, so history size is the
	// traffic dimension that exposes O(history) costs.
	historyJobs = 5000
	// admitJobsPerSecond sizes the submit phase: --seconds × this many
	// jobs, a count fixed by the run's settings, not by its speed, so
	// every commit admits the same jobs onto the same history.
	admitJobsPerSecond = 400
	// coldStarts is how many times set-up opens the daemon on the history.
	coldStarts = 3
	// admitChunks splits the submit phase for the calibration kernel.
	admitChunks = 8
)

// runAdmit is the admit-durable workload: two closed-loop clients on
// one durable fleet that already holds a history. One replays the
// trace's submit times and so advances the virtual clock; the other
// sends no submit time ("now").
func runAdmit(e *env) (*outcome, error) {
	o := newOutcome()
	cal := newCalibration(runtime.NumCPU())
	n := int(e.seconds*admitJobsPerSecond) &^ 1
	jobs, err := seededJobs(e.seed, 120, historyJobs+n)
	if err != nil {
		return nil, err
	}
	hist := filepath.Join(e.dir, "history")
	if err := prepareHistory(hist, jobs[:historyJobs]); err != nil {
		return nil, fmt.Errorf("preparing history: %w", err)
	}
	var lists [2][]energysched.JobSpec
	for i, j := range jobs[historyJobs:] {
		lists[i%2] = append(lists[i%2], spec(j, i%2 == 0))
	}

	// Set-up: the daemon's cold start on the history, repeated.
	dirA := filepath.Join(e.dir, "a")
	if err := copyDir(hist, dirA); err != nil {
		return nil, err
	}
	var starts samples
	var d *daemon
	for i := 0; i < coldStarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		cal.sample(2) // collects garbage first: the previous daemon's stays out of this start
		var open time.Duration
		if d, open, err = startDaemon(dirA, false); err != nil {
			return nil, err
		}
		starts = append(starts, open.Seconds())
	}
	o.setup = starts.q(0.5)

	ph, err := submitPhase(d, lists[:], cal)
	if err != nil {
		d.stop()
		return nil, err
	}
	o.speed = cal.factor()
	o.layer["bench.calibration_ms"] = cal.ms.q(0.5)
	o.wall = ph.wall.Seconds()
	if o.rss, err = peakRSSMB(); err != nil {
		return nil, err
	}
	o.lat = latencies(ph.recs...)
	countOps(&o.tally, ph.recs...)
	o.logf("admit-durable: %d jobs on a %d-job history, admit_jobs_per_s=%.1f admit_p50_ms=%.3f admit_p90_ms=%.3f admit_p99_ms=%.3f",
		n, historyJobs, float64(len(ph.acks))/o.wall, o.lat.q(0.5), o.lat.q(0.9), o.lat.q(0.99))

	// Output check: the WAL holds every acknowledged job, and recovery
	// reproduces the live report taken just before shutdown.
	if err := d.stop(); err != nil {
		return nil, err
	}
	d, _, err = startDaemon(dirA, false)
	if err != nil {
		return nil, fmt.Errorf("reopening the fleet: %w", err)
	}
	f, err := d.fleet()
	if err == nil {
		var rec energysched.ServiceReport
		if rec, err = f.Report(); err == nil {
			for _, p := range checkRecovery(ph.acks, f.Job, ph.live, rec, &o.tally) {
				o.logf("admit-durable check: %s", p)
			}
		}
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	if e.traced {
		if err := traceAdmit(e, o, hist, lists[:], ph.wall); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// submitResult is one closed-loop submit phase.
type submitResult struct {
	recs [][]opRecord
	acks []energysched.JobStatus
	wall time.Duration
	live energysched.ServiceReport
	// overhead is the client time outside the handler (traced phases).
	overhead samples
}

// submitPhase runs one closed-loop client per list over HTTP, then
// reads the live report. The lists go out in admitChunks chunks with
// the calibration kernel timed between them while the daemon is idle.
func submitPhase(d *daemon, lists [][]energysched.JobSpec, cal *calibration) (*submitResult, error) {
	conns := newConns(d, len(lists))
	defer closeConns(conns)
	acks := make([][]energysched.JobStatus, len(lists))
	ctx := context.Background()
	res := &submitResult{recs: make([][]opRecord, len(lists))}
	for k := 0; k < admitChunks; k++ {
		chunk := make([][]energysched.JobSpec, len(lists))
		for w, l := range lists {
			chunk[w] = l[k*len(l)/admitChunks : (k+1)*len(l)/admitChunks]
		}
		recs, wall := closedLoop(chunk, func(w int, s energysched.JobSpec) error {
			return conns[w].do(func(api *energysched.Client) error {
				st, err := api.SubmitJob(ctx, s)
				if err == nil {
					acks[w] = append(acks[w], st)
				}
				return err
			})
		})
		res.wall += wall
		for w := range recs {
			res.recs[w] = append(res.recs[w], recs[w]...)
		}
		cal.sample(2)
	}
	for _, a := range acks {
		res.acks = append(res.acks, a...)
	}
	var err error
	res.live, err = conns[0].api.Report(ctx)
	if err != nil {
		return nil, fmt.Errorf("live report: %w", err)
	}
	for _, c := range conns {
		res.overhead = append(res.overhead, c.overhead...)
	}
	return res, nil
}

// traceAdmit adds the admit-durable per-layer numbers: the fleet's open
// time, the same phase with the handler and client instrumented, the
// same stream through Fleet.Submit without HTTP, and the fsync floor.
func traceAdmit(e *env, o *outcome, hist string, lists [][]energysched.JobSpec, untraced time.Duration) error {
	dirB, dirC := filepath.Join(e.dir, "b"), filepath.Join(e.dir, "c")
	for _, dir := range []string{dirB, dirC} {
		if err := copyDir(hist, dir); err != nil {
			return err
		}
	}
	t0 := time.Now()
	f, err := fleet.Open(server.DefaultFleet, fleetConfig(dirB))
	if err != nil {
		return fmt.Errorf("fleet.Open: %w", err)
	}
	o.layer["fleet.open_s"] = time.Since(t0).Seconds()
	f.Close()

	d, _, err := startDaemon(dirB, true)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	before, err := scrapeMetrics(d.url)
	if err != nil {
		return err
	}
	fl, err := d.fleet()
	if err != nil {
		return err
	}
	st0, err := fl.Stats()
	if err != nil {
		return err
	}
	ph, err := submitPhase(d, lists, newCalibration(runtime.NumCPU()))
	if err != nil {
		return err
	}
	countOps(&o.tally, ph.recs...)
	after, err := scrapeMetrics(d.url)
	if err != nil {
		return err
	}
	st1, err := fl.Stats()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	post := d.routes.route("post_jobs")
	o.layer["server.post_jobs_p50_us"] = post.q(0.5)
	o.layer["server.post_jobs_p99_us"] = post.q(0.99)
	o.layer["client.overhead_p50_us"] = ph.overhead.q(0.5)
	o.layer["fleet.wal_append_s"] = delta("energysched_wal_append_seconds_sum")
	o.layer["fleet.admit_batch_s"] = delta("energysched_admit_batch_seconds_sum")
	o.layer["fleet.solver_round_s"] = delta("energysched_solver_round_seconds_sum")
	appended := float64(st1.Appended - st0.Appended)
	o.layer["fleet.wal_records_appended"] = appended
	o.layer["fleet.compactions"] = float64(st1.Snapshots - st0.Snapshots)
	o.layer["fleet.jobs_per_wal_append"] = appended / max(delta("energysched_wal_append_seconds_count"), 1)
	o.layer["trace_overhead_ratio"] = ph.wall.Seconds()/untraced.Seconds() - 1
	err = d.stop()
	d = nil
	if err != nil {
		return err
	}

	// The same stream straight into the fleet, with no HTTP in between.
	if d, _, err = startDaemon(dirC, false); err != nil {
		return err
	}
	if fl, err = d.fleet(); err != nil {
		return err
	}
	recs, _ := closedLoop(lists, func(_ int, s energysched.JobSpec) error {
		_, err := fl.Submit(s)
		return err
	})
	countOps(&o.tally, recs...)
	direct := latencies(recs...)
	o.layer["fleet.submit_p50_us"] = direct.q(0.5) * 1000
	o.layer["fleet.submit_p99_us"] = direct.q(0.99) * 1000

	payload, err := json.Marshal(lists[0][0])
	if err != nil {
		return err
	}
	floor, err := fsyncFloor(e.dir, len(fleet.EncodeFrame(payload)), 200)
	if err != nil {
		return err
	}
	o.layer["device.fsync_p50_us"] = floor.q(0.5)

	// The read path beside writes, over half the run's seconds, so the
	// read layers are measured on this workload too.
	mix, err := seededJobs(e.seed, 120, int(e.seconds/2*writeRate))
	if err != nil {
		return err
	}
	_, err = traceReads(e, o, mix, int(e.seconds/2*readRate))
	return err
}
