package datacenter

import (
	"slices"
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/obs/series"
	"energysched/internal/policy"
	"energysched/internal/vm"
	"energysched/internal/workload"
)

// sweepActive is the brute-force definition the live index must
// match: every VM ever admitted that occupies node resources, in ID
// order.
func sweepActive(s *Simulation) []*vm.VM {
	var out []*vm.VM
	for _, v := range s.VMs() {
		if v.Active() {
			out = append(out, v)
		}
	}
	return out
}

// churnPolicy runs SB and, once per round, also migrates a running
// VM due to complete within the next 30 s (SB itself never moves a
// nearly finished VM), so the run completes VMs mid-migration. check,
// when non-nil, sees every round's context first.
type churnPolicy struct {
	policy.Policy
	sim   *Simulation
	check func(ctx *policy.Context)
}

func (p *churnPolicy) Schedule(ctx *policy.Context) []policy.Action {
	if p.check != nil {
		p.check(ctx)
	}
	actions := p.Policy.Schedule(ctx)
	for _, v := range ctx.Active {
		tm := p.sim.completionTimer[v.ID]
		if v.State != vm.Running || tm == nil || !tm.Pending() || tm.Time()-ctx.Now > 30 {
			continue
		}
		for _, n := range ctx.Cluster.Nodes {
			if n.ID != v.Host && n.State == cluster.On && n.Satisfies(v.Req) {
				return append(actions, policy.Migrate{VM: v, To: n.ID})
			}
		}
	}
	return actions
}

// churnPaths counts how often a churn run took each of the transitions
// that leave or rejoin the live set by an unusual route.
type churnPaths struct {
	srcDied, dstDied, creatingDied, completedMigrating int
}

// churnSim builds an SB simulation that migrates eagerly, loses nodes
// both organically and through CrashNode injections aimed at in-flight
// creations and migrations, and so exercises every path that moves a
// VM into or out of the live set. observe, when non-nil, runs after
// every emitted event; the returned paths are filled in as the run
// proceeds.
func churnSim(t *testing.T, observe func(s *Simulation, e Event)) (*Simulation, *churnPolicy, *churnPaths) {
	t.Helper()
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Horizon = 12 * 3600
	gcfg.Seed = 4
	tr := workload.MustGenerate(gcfg)

	scfg := core.SBConfig()
	scfg.MigrationGainMin = 1
	classes := smallClasses(8)
	for i := range classes {
		classes[i].Reliability = 0.995
	}
	var sim *Simulation
	pol := &churnPolicy{Policy: core.MustScheduler(scfg)}
	paths := &churnPaths{}
	migrating := map[int]bool{}
	placed, migrations := 0, 0
	cfg := Config{
		Classes:         classes,
		Trace:           tr,
		Policy:          pol,
		Seed:            2,
		FailuresEnabled: true,
		MTTR:            900,
		StartOnline:     true,
		EventLog: func(e Event) {
			switch e.Kind {
			case EvPlace:
				// Every 25th creation loses its node mid-flight.
				if placed++; placed%25 == 0 {
					node := e.Node
					sim.eng.ScheduleAfter(5, func() { sim.CrashNode(node) })
				}
			case EvMigrateStart:
				migrating[e.VM] = true
				// Every fourth migration loses an endpoint, alternating
				// between source and destination.
				if migrations++; migrations%4 == 0 {
					node := e.Node
					if migrations%8 == 0 {
						node = e.Aux
					}
					sim.eng.ScheduleAfter(10, func() { sim.CrashNode(node) })
				}
			case EvMigrated:
				delete(migrating, e.VM)
			case EvFailed:
				for _, v := range sim.cluster.Node(e.Node).VMs {
					switch {
					case v.State == vm.Migrating && v.Host == e.Node:
						paths.srcDied++
					case v.State == vm.Migrating:
						paths.dstDied++
					case v.State == vm.Creating:
						paths.creatingDied++
					}
					delete(migrating, v.ID)
				}
			case EvCompleted:
				if migrating[e.VM] {
					paths.completedMigrating++
					delete(migrating, e.VM)
				}
			}
			if observe != nil {
				observe(sim, e)
			}
		},
	}
	var err error
	if sim, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	pol.sim = sim
	return sim, pol, paths
}

// TestLiveIndexMatchesSweep: after every event, and as the input of
// every round, the transition-maintained live index equals a
// brute-force sweep of every VM ever admitted, in ID order, on a run
// that hits every way a VM enters or leaves node resources.
func TestLiveIndexMatchesSweep(t *testing.T) {
	events, rounds := 0, 0
	sim, pol, paths := churnSim(t, func(s *Simulation, e Event) {
		events++
		if got, want := s.appendActiveVMs(nil), sweepActive(s); !slices.Equal(got, want) {
			t.Fatalf("after %s at t=%v: live index has %d VMs, sweep has %d", e.Kind, e.Time, len(got), len(want))
		}
	})
	pol.check = func(ctx *policy.Context) {
		rounds++
		if want := sweepActive(sim); !slices.Equal(ctx.Active, want) {
			t.Fatalf("round at t=%v: context has %d active VMs, sweep has %d", ctx.Now, len(ctx.Active), len(want))
		}
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsCompleted != rep.JobsTotal {
		t.Fatalf("completed %d of %d jobs", rep.JobsCompleted, rep.JobsTotal)
	}
	if len(sim.live) != 0 {
		t.Fatalf("%d VMs left in the live index after the run", len(sim.live))
	}
	t.Logf("%d events, %d rounds, %d failures, %d migrations, paths %+v",
		events, rounds, rep.Failures, rep.Migrations, *paths)
	if paths.srcDied == 0 || paths.dstDied == 0 || paths.creatingDied == 0 || paths.completedMigrating == 0 {
		t.Fatalf("scenario missed a transition path: %+v", *paths)
	}
}

// TestStateCountsMatchSweep: the job-state counts served on /metrics,
// derived from the live index and the completion counter, equal a
// brute-force sweep at every housekeeping tick of a failure-heavy run.
func TestStateCountsMatchSweep(t *testing.T) {
	sim, _, _ := churnSim(t, nil)
	ticks := 0
	sim.Sampler = func(smp series.Sample) {
		ticks++
		var want [vm.Failed + 1]int
		for _, v := range sim.VMs() {
			want[v.State]++
		}
		if got := sim.StateCounts(); got != want {
			t.Fatalf("t=%v: state counts %v, sweep %v", smp.T, got, want)
		}
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ticks == 0 || rep.Failures == 0 {
		t.Fatalf("scenario too quiet: %d ticks, %d failures", ticks, rep.Failures)
	}
}
