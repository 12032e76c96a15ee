package core

import (
	"math"
	"math/rand"
	"testing"

	"energysched/internal/vm"
)

// The incremental solver derives each VM's best-move record from
// per-class summaries of the base row instead of scanning the composed
// row. These tests hold that derivation, and the in-place summary
// updates of a carried row, to a brute-force scan.

// bruteRecord scans the composed row the way the solver did before
// summaries: the lowest column achieving the minimum finite score and
// the lowest column with any finite score, skipping the current host.
func bruteRecord(base []float64, classOf []int, assign int, timeMove []float64) (best float64, bestNi, firstNi int) {
	best, bestNi, firstNi = math.Inf(1), -1, -1
	for ni, b := range base {
		if ni == assign || math.IsInf(b, 1) {
			continue
		}
		t := timeMove[classOf[ni]]
		if math.IsInf(t, 1) {
			continue
		}
		sc := b + t
		if firstNi < 0 {
			firstNi = ni
		}
		if sc < best {
			best, bestNi = sc, ni
		}
	}
	return best, bestNi, firstNi
}

// summarize builds a row's per-class summaries, visiting the columns
// in the given order.
func summarize(base []float64, classOf []int, assign, k int, order []int) []classSummary {
	sum := make([]classSummary, k)
	for i := range sum {
		sum[i] = emptySummary
	}
	for _, ni := range order {
		if ni != assign {
			sum[classOf[ni]].add(ni, base[ni])
		}
	}
	return sum
}

func ascending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// columnsOf lists each class's columns in ascending order.
func columnsOf(classOf []int, k int) [][]int {
	cols := make([][]int, k)
	for ni, c := range classOf {
		cols[c] = append(cols[c], ni)
	}
	return cols
}

func checkRecord(t *testing.T, name string, base []float64, classOf []int, assign int, timeMove []float64, sum []classSummary) {
	t.Helper()
	gb, gn, gf := rowRecord(base, columnsOf(classOf, len(timeMove)), assign, sum, timeMove)
	wb, wn, wf := bruteRecord(base, classOf, assign, timeMove)
	if gb != wb || gn != wn || gf != wf {
		t.Fatalf("%s: base=%v classOf=%v assign=%d time=%v: record (%v, %d, %d), brute force (%v, %d, %d)",
			name, base, classOf, assign, timeMove, gb, gn, gf, wb, wn, wf)
	}
}

func TestRowRecordCases(t *testing.T) {
	inf := math.Inf(1)
	next1 := math.Nextafter(1, 2) // 1+2⁻⁵²: 1+1 and next1+1 both round to 2
	cases := []struct {
		name     string
		base     []float64
		classOf  []int
		assign   int
		timeMove []float64
		want     [3]float64 // best, bestNi, firstNi
	}{
		{"infinite cells", []float64{inf, 3, inf, 4}, []int{0, 0, 0, 0}, -1, []float64{0}, [3]float64{3, 1, 1}},
		{"equal bases: lowest column", []float64{2, 1, 1}, []int{0, 0, 0}, -1, []float64{0}, [3]float64{1, 1, 0}},
		{"equal scores across classes", []float64{1, 1}, []int{1, 0}, -1, []float64{0, 0}, [3]float64{1, 0, 0}},
		{"current host excluded", []float64{0, 5, 3}, []int{0, 0, 0}, 0, []float64{0}, [3]float64{3, 2, 1}},
		{"class with infinite time", []float64{10, 1, 2}, []int{0, 1, 1}, -1, []float64{0, inf}, [3]float64{10, 0, 0}},
		{"no finite cell", []float64{inf, inf}, []int{0, 1}, -1, []float64{0, 0}, [3]float64{inf, -1, -1}},
		{"only the current host finite", []float64{inf, 7}, []int{0, 0}, 1, []float64{0}, [3]float64{inf, -1, -1}},
		{"rounding collapse, b2 lower", []float64{5, next1, 1}, []int{0, 0, 0}, -1, []float64{1}, [3]float64{2, 1, 0}},
		{"rounding collapse across classes", []float64{next1, 1, 1.5}, []int{0, 0, 1}, -1, []float64{1, 0.5}, [3]float64{2, 0, 0}},
	}
	for _, c := range cases {
		sum := summarize(c.base, c.classOf, c.assign, len(c.timeMove), ascending(len(c.base)))
		best, bestNi, firstNi := rowRecord(c.base, columnsOf(c.classOf, len(c.timeMove)), c.assign, sum, c.timeMove)
		if got := [3]float64{best, float64(bestNi), float64(firstNi)}; got != c.want {
			t.Errorf("%s: record = %v, want %v", c.name, got, c.want)
		}
		checkRecord(t, c.name, c.base, c.classOf, c.assign, c.timeMove, sum)
	}
}

// randomRow draws a row whose values collide often: repeated bases,
// +Inf cells, and neighbours one ulp apart that a time term can round
// together.
func randomRow(r *rand.Rand) (base []float64, classOf []int, assign int, timeMove []float64) {
	pool := []float64{math.Inf(1), -3, 0, 1, math.Nextafter(1, 2), 2, 1e16, 1e16 + 2, 40.5}
	times := []float64{0, 1, 0.5, -1, math.Inf(1), 2}
	k := 1 + r.Intn(3)
	h := 1 + r.Intn(12)
	base = make([]float64, h)
	classOf = make([]int, h)
	for i := range base {
		base[i] = pool[r.Intn(len(pool))]
		classOf[i] = r.Intn(k)
	}
	timeMove = make([]float64, k)
	for i := range timeMove {
		timeMove[i] = times[r.Intn(len(times))]
	}
	return base, classOf, r.Intn(h+1) - 1, timeMove
}

func TestRowRecordRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		base, classOf, assign, timeMove := randomRow(r)
		// Summaries must not depend on the order columns are folded in.
		order := r.Perm(len(base))
		sum := summarize(base, classOf, assign, len(timeMove), order)
		if want := summarize(base, classOf, assign, len(timeMove), ascending(len(base))); !equalSummaries(sum, want) {
			t.Fatalf("order %v: summaries %v, ascending %v", order, sum, want)
		}
		checkRecord(t, "random", base, classOf, assign, timeMove, sum)
	}
}

// TestSummaryUpdateMatchesRebuild changes random cells of a row the way
// a carried row's stale columns change, applying classSummary.update
// and rebuilding a class only when update declines. The result must
// equal summaries built from scratch after every change.
func TestSummaryUpdateMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	declined := 0
	for i := 0; i < 5000; i++ {
		base, classOf, assign, timeMove := randomRow(r)
		k := len(timeMove)
		sum := summarize(base, classOf, assign, k, ascending(len(base)))
		for step := 0; step < 8; step++ {
			ni := r.Intn(len(base))
			old := base[ni]
			base[ni] = []float64{math.Inf(1), 1, math.Nextafter(1, 2), 2, -3, 1e16 + 2}[r.Intn(6)]
			if ni != assign && !sum[classOf[ni]].update(ni, old, base[ni]) {
				declined++
				c := classOf[ni]
				sum[c] = emptySummary
				for j, b := range base {
					if j != assign && classOf[j] == c {
						sum[c].add(j, b)
					}
				}
			}
			if want := summarize(base, classOf, assign, k, ascending(len(base))); !equalSummaries(sum, want) {
				t.Fatalf("after setting column %d from %v to %v in %v: summaries %v, want %v",
					ni, old, base[ni], base, sum, want)
			}
			checkRecord(t, "updated", base, classOf, assign, timeMove, sum)
		}
	}
	if declined == 0 {
		t.Fatal("update never declined; the rebuild fallback went untested")
	}
}

func equalSummaries(a, b []classSummary) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGrowReallocatesLogarithmically pins grow's headroom: when the
// candidate count rises by one every round, the scratch buffers sized
// by it must reallocate O(log V) times over V rounds, not once per
// round. Every round here emits nothing (no VM fits anywhere), so all
// allocations come from scratch growth.
func TestGrowReallocatesLogarithmically(t *testing.T) {
	c := testCluster(t, 8)
	vms := make([]*vm.VM, 512)
	for i := range vms {
		vms[i] = vm.New(i, vm.Requirements{CPU: 100, Mem: 5, Arch: "sparc"}, 0, 3600, 7200)
	}
	allocsUpTo := func(n int) float64 {
		ctx := ctxFor(c, nil, nil)
		return testing.AllocsPerRun(1, func() {
			sch := MustScheduler(SBConfig())
			for v := 1; v <= n; v++ {
				ctx.Queue = vms[:v]
				if acts := sch.Schedule(ctx); len(acts) != 0 {
					t.Fatalf("unexpected actions: %v", acts)
				}
			}
		})
	}
	small, large := allocsUpTo(128), allocsUpTo(512)
	// Growing by 1.5× per reallocation, 384 more rounds cost about
	// log1.5(4) ≈ 3.4 reallocations per buffer; exact-size growth would
	// cost 384 per buffer.
	if extra := large - small; extra > 100 {
		t.Errorf("rounds 129..512 allocated %.0f more times than rounds 1..128 (%.0f); want O(log V)", extra, small)
	}
}
