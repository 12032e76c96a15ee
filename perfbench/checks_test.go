package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"energysched"
)

func TestCheckRowsRejectsCorruptedRow(t *testing.T) {
	good := [][]rowOutput{}
	for _, r := range referenceRows {
		good = append(good, []rowOutput{r, r})
	}
	var tl tally
	if p := checkRows(referenceSeed, good, &tl); len(p) != 0 || tl.failed != 0 {
		t.Fatalf("reference rows rejected: %v", p)
	}

	corrupt := func(rows [][]rowOutput, i, rep int, f func(*rowOutput)) [][]rowOutput {
		out := make([][]rowOutput, len(rows))
		for k := range rows {
			out[k] = append([]rowOutput(nil), rows[k]...)
		}
		f(&out[i][rep])
		return out
	}
	cases := map[string]struct {
		seed int64
		rows [][]rowOutput
	}{
		"kWh off the reference": {referenceSeed, corrupt(good, 3, 0, func(r *rowOutput) { r.KWh += 1e-9 })},
		"migrations off":        {referenceSeed, corrupt(good, 9, 1, func(r *rowOutput) { r.Migrations++ })},
		"missing row":           {referenceSeed, good[:len(good)-1]},
		"repetitions disagree":  {42, corrupt(good, 0, 1, func(r *rowOutput) { r.S -= 0.5 })},
		"jobs lost":             {42, corrupt(good, 5, 1, func(r *rowOutput) { r.Completed-- })},
	}
	for name, c := range cases {
		var tl tally
		p := checkRows(c.seed, c.rows, &tl)
		if len(p) == 0 || tl.failed == 0 {
			t.Errorf("%s: corrupted rows accepted", name)
		}
	}
}

func TestCheckRecoveryRejectsMissingJobAndCorruptReport(t *testing.T) {
	acks := []energysched.JobStatus{{ID: 0, Submit: 1, Duration: 60, CPU: 100}, {ID: 1, Submit: 2, Duration: 90, CPU: 200}}
	jobs := map[int]energysched.JobStatus{0: acks[0], 1: acks[1]}
	lookup := func(id int) (energysched.JobStatus, error) {
		j, ok := jobs[id]
		if !ok {
			return j, &energysched.APIError{Status: http.StatusNotFound, Message: fmt.Sprintf("job %d not found", id)}
		}
		return j, nil
	}
	live := energysched.ServiceReport{Policy: "SB", EnergyKWh: 12.5, JobsTotal: 2, Table: "row"}

	var tl tally
	if p := checkRecovery(acks, lookup, live, live, &tl); len(p) != 0 {
		t.Fatalf("clean recovery rejected: %v", p)
	}

	delete(jobs, 1)
	tl = tally{}
	if p := checkRecovery(acks, lookup, live, live, &tl); len(p) != 1 || tl.failed != 1 {
		t.Errorf("missing job: problems %v, failed %d", p, tl.failed)
	}
	jobs[1] = energysched.JobStatus{ID: 1, Submit: 2, Duration: 91, CPU: 200}
	tl = tally{}
	if p := checkRecovery(acks, lookup, live, live, &tl); len(p) != 1 {
		t.Errorf("altered job accepted: %v", p)
	}
	jobs[1] = acks[1]
	bad := live
	bad.EnergyKWh = 12.4
	tl = tally{}
	if p := checkRecovery(acks, lookup, live, bad, &tl); len(p) != 1 || tl.failed != 1 {
		t.Errorf("corrupted report: problems %v, failed %d", p, tl.failed)
	}
}

func TestCheckOfflineRejectsCorruptReport(t *testing.T) {
	rep := energysched.ServiceReport{Policy: "SB", EnergyKWh: 3, Migrations: 2, Final: true, Table: "row"}
	var tl tally
	if p := checkOffline(rep, rep, &tl); len(p) != 0 {
		t.Fatalf("equal reports rejected: %v", p)
	}
	bad := rep
	bad.Migrations = 3
	if p := checkOffline(bad, rep, &tl); len(p) != 1 {
		t.Error("corrupted report accepted")
	}
	notFinal := rep
	notFinal.Final = false
	if p := checkOffline(notFinal, notFinal, &tl); len(p) != 1 {
		t.Error("undrained report accepted")
	}
	if tl.attempted != 3 || tl.failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2", tl.attempted, tl.failed)
	}
}

// TestChecksOnALiveDaemon runs both serving checks against a real
// durable daemon: they pass on its true outputs and fail when a job is
// missing from either side.
func TestChecksOnALiveDaemon(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	jobs, err := seededJobs(3, 120, 40)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := startDaemon(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	conns := newConns(d, 1)
	ctx := context.Background()
	var acks []energysched.JobStatus
	for _, j := range jobs {
		st, err := conns[0].api.SubmitJob(ctx, spec(j, true))
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, st)
	}
	live, err := conns[0].api.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	closeConns(conns)
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}

	if d, _, err = startDaemon(dir, false); err != nil {
		t.Fatal(err)
	}
	f, err := d.fleet()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.Report()
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	if p := checkRecovery(acks, f.Job, live, rec, &tl); len(p) != 0 {
		t.Fatalf("recovery check failed on a clean restart: %v", p)
	}
	ghost := append(acks, energysched.JobStatus{ID: len(acks), Submit: 1e9, Duration: 60, CPU: 100})
	if p := checkRecovery(ghost, f.Job, live, rec, &tl); len(p) != 1 {
		t.Errorf("acknowledged job missing from the WAL not caught: %v", p)
	}

	final, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	want, err := offlineReport(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if p := checkOffline(final, want, &tl); len(p) != 0 {
		t.Fatalf("online and offline disagree on the same stream: %v", p)
	}
	short, err := offlineReport(jobs[:len(jobs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if p := checkOffline(final, short, &tl); len(p) != 1 {
		t.Error("a job missing from the offline stream was not caught")
	}
}
