package main

import (
	"fmt"

	"energysched"
)

// checkRows checks each paper-tables row: its outputs must be identical
// across the run's repetitions for any seed, and equal the reference
// recorded for the default seed. It returns one line per problem.
func checkRows(seed int64, outs [][]rowOutput, t *tally) []string {
	var problems []string
	if len(outs) != len(tableRows()) {
		t.check(false)
		problems = append(problems, fmt.Sprintf("%d rows, want %d", len(outs), len(tableRows())))
	}
	for i, reps := range outs {
		for k, r := range reps {
			switch {
			case r != reps[0]:
				t.check(false)
				problems = append(problems, fmt.Sprintf("row %d repetition %d: %v, first repetition %v", i, k, r, reps[0]))
			case seed == referenceSeed && (i >= len(referenceRows) || r != referenceRows[i]):
				t.check(false)
				problems = append(problems, fmt.Sprintf("row %d differs from the reference: %#v", i, r))
			default:
				t.check(true)
			}
		}
	}
	return problems
}

// checkRecovery checks a fleet reopened from its WAL: every
// acknowledged job is present as acknowledged, and the recovered report
// equals the live report taken just before shutdown.
func checkRecovery(acks []energysched.JobStatus, job func(id int) (energysched.JobStatus, error),
	live, recovered energysched.ServiceReport, t *tally) []string {
	var problems []string
	for _, a := range acks {
		got, err := job(a.ID)
		ok := err == nil && got.ID == a.ID && got.Name == a.Name && got.Submit == a.Submit &&
			got.Duration == a.Duration && got.CPU == a.CPU && got.Mem == a.Mem
		t.check(ok)
		if !ok {
			problems = append(problems, fmt.Sprintf("acknowledged job %d not recovered (err %v): got %+v", a.ID, err, got))
		}
	}
	ok := recovered == live
	t.check(ok)
	if !ok {
		problems = append(problems, fmt.Sprintf("recovered report %+v differs from live report %+v", recovered, live))
	}
	return problems
}

// checkOffline checks the online ≡ offline contract: the drained
// fleet's final report equals the offline run of the same job stream.
func checkOffline(online, offline energysched.ServiceReport, t *tally) []string {
	ok := online == offline && online.Final
	t.check(ok)
	if !ok {
		return []string{fmt.Sprintf("online report %+v differs from offline %+v", online, offline)}
	}
	return nil
}
