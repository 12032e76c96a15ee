package main

import (
	"fmt"
	"time"

	"energysched/internal/core"
	"energysched/internal/datacenter"
	"energysched/internal/experiments"
	"energysched/internal/workload"
)

// tablesTrace is the paper-tables input: the paper's week, perturbed
// by seed (see seededJobs).
func tablesTrace(seed int64) (*workload.Trace, error) {
	jobs, err := seededJobs(seed, 7, 0)
	if err != nil {
		return nil, err
	}
	return &workload.Trace{Jobs: jobs}, nil
}

// tableRows lists every row of Tables II–V in the order cmd/tables
// prints them.
func tableRows() []experiments.SpecMaker {
	var rows []experiments.SpecMaker
	for _, t := range [][]experiments.SpecMaker{
		experiments.TableIIMakers(), experiments.TableIIIMakers(),
		experiments.TableIVMakers(), experiments.TableVMakers(),
	} {
		rows = append(rows, t...)
	}
	return rows
}

// rowOutput is the part of a row the output check compares.
type rowOutput struct {
	Label      string
	KWh, S     float64
	Migrations int
	Completed  int
}

func (r rowOutput) String() string {
	return fmt.Sprintf("%s kWh=%v S=%v mig=%d done=%d", r.Label, r.KWh, r.S, r.Migrations, r.Completed)
}

// rowTrace collects the traced run's per-layer numbers for table rows.
type rowTrace struct {
	core, policy scheduleTimer
	runWall      time.Duration
	simEvents    uint64
	dcEvents     uint64
}

// runRow simulates one table row through datacenter.New(...).Run(),
// exactly as experiments.RunSpec does. With tr non-nil it wraps the
// row's policy to time Schedule and counts engine and log events.
func runRow(m experiments.SpecMaker, trace *workload.Trace, tr *rowTrace) (rowOutput, time.Duration, error) {
	spec := m.Make()
	cfg := datacenter.Config{
		Trace:     trace,
		Policy:    spec.Policy,
		LambdaMin: spec.LambdaMin,
		LambdaMax: spec.LambdaMax,
		Seed:      experiments.Seed,
	}
	if tr != nil {
		timer := &tr.policy
		if _, ok := spec.Policy.(*core.Scheduler); ok {
			timer = &tr.core
		}
		cfg.Policy = timedPolicy{Policy: spec.Policy, timer: timer}
		cfg.EventLog = func(datacenter.Event) { tr.dcEvents++ }
	}
	t0 := time.Now()
	sim, err := datacenter.New(cfg)
	if err != nil {
		return rowOutput{}, 0, err
	}
	rep, err := sim.Run()
	wall := time.Since(t0)
	if err != nil {
		return rowOutput{}, 0, err
	}
	if tr != nil {
		tr.runWall += wall
		tr.simEvents += sim.Engine().Processed()
	}
	return rowOutput{Label: m.Label, KWh: rep.EnergyKWh, S: rep.Satisfaction,
		Migrations: rep.Migrations, Completed: rep.JobsCompleted}, wall, nil
}

// tablesPass runs every row once, each from a collected heap after one
// run of the calibration kernel; rowWall receives each row's time.
func tablesPass(rows []experiments.SpecMaker, trace *workload.Trace, tr *rowTrace, cal *calibration, rowWall [][]float64, outs [][]rowOutput) error {
	for i, m := range rows {
		cal.sample(1)
		out, wall, err := runRow(m, trace, tr)
		if err != nil {
			return fmt.Errorf("row %d (%s): %w", i, m.Label, err)
		}
		rowWall[i] = append(rowWall[i], wall.Seconds())
		outs[i] = append(outs[i], out)
	}
	return nil
}

// runTables is the paper-tables workload: every row of Tables II–V on
// the seeded week, repeated for the run's budget.
func runTables(e *env) (*outcome, error) {
	o := newOutcome()
	cal := newCalibration(1)
	cal.sample(3)
	// Set-up is trace generation; it is repeated so its median is steady.
	var gen samples
	var trace *workload.Trace
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		tr, err := tablesTrace(e.seed)
		if err != nil {
			return nil, err
		}
		gen = append(gen, time.Since(t0).Seconds())
		trace = tr
	}
	o.setup = gen.q(0.5)
	o.layer["workload.generate_s"] = gen.q(0.5)

	rows := tableRows()
	// A traced run spends the first half of its budget untraced, so the
	// trace overhead is measured on the same input in the same process.
	budget := e.seconds
	if e.traced {
		budget /= 2
	}
	untraced, outs, err := tablesReps(rows, trace, nil, cal, budget)
	if err != nil {
		return nil, err
	}
	wall := sumOfMedians(untraced)
	o.logf("paper-tables: %d rows × %d reps, tables_wall_s=%.3f", len(rows), len(untraced[0]), wall)

	if e.traced {
		var tr rowTrace
		traced, touts, err := tablesReps(rows, trace, &tr, cal, budget)
		if err != nil {
			return nil, err
		}
		for i := range outs {
			outs[i] = append(outs[i], touts[i]...)
		}
		reps := float64(len(traced[0]))
		sched := tr.core.total + tr.policy.total
		o.layer["core.schedule_s"] = tr.core.total.Seconds() / reps
		o.layer["core.schedule_p99_us"] = tr.core.lat.q(0.99)
		o.layer["core.rounds"] = float64(tr.core.rounds) / reps
		o.layer["core.empty_round_ratio"] = float64(tr.core.empty) / float64(max(tr.core.rounds, 1))
		o.layer["policy.schedule_s"] = tr.policy.total.Seconds() / reps
		o.layer["datacenter.self_s"] = (tr.runWall - sched).Seconds() / reps
		o.layer["simkit.events"] = float64(tr.simEvents) / reps
		o.layer["datacenter.events"] = float64(tr.dcEvents) / reps
		o.layer["trace_overhead_ratio"] = sumOfMedians(traced)/wall - 1
	}

	o.speed = cal.factor()
	o.layer["bench.calibration_ms"] = cal.ms.q(0.5)
	var lat samples
	for _, w := range untraced {
		lat = append(lat, samples(w).q(0.5)*1000)
	}
	o.wall = wall
	o.lat = lat
	if o.rss, err = peakRSSMB(); err != nil {
		return nil, err
	}
	for _, p := range checkRows(e.seed, outs, &o.tally) {
		o.logf("paper-tables check: %s", p)
	}
	return o, nil
}

// tablesReps repeats whole passes over the rows while the next pass is
// expected to end within budget seconds (at least one pass).
func tablesReps(rows []experiments.SpecMaker, trace *workload.Trace, tr *rowTrace, cal *calibration, budget float64) ([][]float64, [][]rowOutput, error) {
	walls := make([][]float64, len(rows))
	outs := make([][]rowOutput, len(rows))
	start := time.Now()
	for rep := 0; ; rep++ {
		el := time.Since(start).Seconds()
		if rep > 0 && el+el/float64(rep) > budget {
			break
		}
		if err := tablesPass(rows, trace, tr, cal, walls, outs); err != nil {
			return nil, nil, err
		}
	}
	return walls, outs, nil
}

// sumOfMedians adds up each row's median time: the host seconds one
// clean pass over every row takes.
func sumOfMedians(walls [][]float64) float64 {
	t := 0.0
	for _, w := range walls {
		t += samples(w).q(0.5)
	}
	return t
}
