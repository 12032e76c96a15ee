package datacenter

import (
	"energysched/internal/cluster"
	"energysched/internal/obs/series"
	"energysched/internal/vm"
)

// SampleAt builds one accounting sample as of virtual time t — the
// paper's evaluation quantities (power draw, cumulative energy, SLA
// fulfillment, utilization, node counts, migration churn) plus the
// per-node-class breakdown — WITHOUT mutating any simulation state.
// Like ReportAt, purity is load-bearing: samples are taken from the
// housekeeping tick of live runs, so a sample that split a float
// integration interval or bumped an epoch would break the
// byte-identity contract between observed and unobserved runs.
func (s *Simulation) SampleAt(t float64) series.Sample {
	smp := series.Sample{
		T:          t,
		SLA:        s.satAgg.Mean(),
		Queue:      len(s.queue),
		Migrations: s.migrations,
		Completed:  s.completed,
	}

	// Per-class breakdown, in the class declaration order of the
	// cluster layout. Nodes are laid out class by class, so a
	// last-class cache resolves almost every node without touching
	// the name map — SampleAt runs on every housekeeping tick of a
	// sampled fleet, and at chaos scale (10k nodes) the per-node map
	// lookup dominated its cost. The fleet-wide node counts fall out
	// of the same pass.
	idx := make(map[*cluster.Class]int, 4)
	var classes []series.ClassSample
	var lastClass *cluster.Class
	var lastIdx int
	var capOnline, reserved float64
	for _, rt := range s.rt {
		n := rt.node
		i := lastIdx
		if n.Class != lastClass {
			var ok bool
			if i, ok = idx[n.Class]; !ok {
				i = len(classes)
				idx[n.Class] = i
				classes = append(classes, series.ClassSample{Class: n.Class.Name})
			}
			lastClass, lastIdx = n.Class, i
		}
		c := &classes[i]
		w := rt.meter.CurrentWatts()
		k := rt.meter.KWhAt(t)
		c.Watts += w
		c.KWh += k
		smp.Watts += w
		smp.KWh += k
		switch n.State {
		case cluster.On:
			c.On++
			if n.Working() {
				c.Working++
				smp.Working++
			}
			smp.On++
			capOnline += n.Class.CPU
			reserved += n.CPUReserved()
		case cluster.Booting:
			c.On++
			smp.On++
		case cluster.Off:
			c.Off++
			smp.Off++
		}
	}
	if capOnline > 0 {
		smp.Utilization = 100 * reserved / capOnline
	}
	smp.Classes = classes

	// Running VMs come from the live index rather than a sweep of the
	// per-node VM maps: it holds each guest once (a migrating VM holds
	// reservations on both endpoints) and costs O(active), not
	// O(nodes), at 10k-node chaos scale.
	jobs := s.StateCounts()
	smp.Running = jobs[vm.Running] + jobs[vm.Migrating]
	return smp
}
