package core

import (
	"math"

	"energysched/internal/cluster"
	"energysched/internal/obs"
	"energysched/internal/vm"
)

// The incremental solver exploits the structure of Score(h, vm): a
// cell depends only on (a) round-static node and VM attributes, (b)
// the shadow load of host h, and (c) whether the VM is currently
// assigned to h. Applying move(vi, a→b) therefore invalidates exactly
// the two endpoint columns a and b (their loads changed for every VM)
// and the moved VM's own row (its assignment changed) — every other
// cell is provably unchanged, so the cached value is bit-identical to
// a fresh evaluation and the solver replays the naive hill climber's
// decisions exactly.
//
// On top of the cached matrix, incState keeps one best-move record per
// VM so each iteration picks the globally best move in O(V) instead of
// O(V·H), turning a round from O(I·V·H) into O(V·H + I·(V+H)) score
// evaluations.

// Across rounds the solver additionally carries the time-independent
// half of the matrix (scoreBase). A cell of that half depends only on
// the observable state of its node (power state, loads, in-flight
// operations, reliability, class) and its VM (requirements, fault
// tolerance, current host) — state that a scheduling round leaves
// untouched for most of the datacenter. crossState snapshots those
// inputs per row and per column; at the top of the next round the
// solver diffs the snapshot against reality and re-scores only the
// rows and columns whose real state changed (VM arrivals/exits,
// migrations, demand updates, power transitions, operation churn).
// The time-dependent half (scoreTime) is recomputed every round, but
// costs only O(V·K) evaluations for K node classes.
//
// Most rounds move nothing, so the round start does not compose the
// full matrix either. Each row keeps a classSummary of its base values
// per node class; since a class shares one time term, the row's
// best-move record follows from its K summaries (rowRecord). The dense
// matrix is composed only before a round's first applied move, which
// leaves an idle round at O(V·K) plus its stale cells.

// rowKey identifies a matrix row (candidate VM) and snapshots every
// VM-side input of scoreBase. A row is carried over only if the same
// VM object matches the whole key — the epoch guards against mutations
// the value fields cannot see, the value fields guard against
// mutations that bypassed Touch.
type rowKey struct {
	vm    *vm.VM
	epoch uint64
	// scoreBase inputs: requirements, fault tolerance, resolved
	// current host (node ID, -1 when queued or unresolvable).
	cpu, mem  float64
	arch, hyp string
	ftol      float64
	initial   int
}

// colKey identifies a matrix column (host) and snapshots every
// node-side input of scoreBase.
type colKey struct {
	node  *cluster.Node
	class *cluster.Class
	epoch uint64
	state cluster.PowerState
	// Reservation sums as seeded into the shadow; bit-stable for an
	// unchanged node because the Node maintains them incrementally.
	cpu, mem  float64
	count     int
	creating  int
	migrating int
	rel       float64
}

// crossState is the cross-round snapshot: the previous round's base
// matrix, its per-class row summaries, and the row/column keys it was
// computed from.
type crossState struct {
	valid bool
	h     int       // previous round's column count
	base  []float64 // previous round's V×H scoreBase matrix, row-major
	// sum holds the previous round's V×K per-class summaries of base
	// (row-major, K = the round's class count); see classSummary.
	sum   []classSummary
	rows  []rowKey  // previous rows, ascending VM ID (candidate order)
	cols  []colKey  // previous columns, host order
	colOf nodeIndex // node ID -> previous column index
}

// classSummary condenses one matrix row's base values over the columns
// of one node class, excluding the VM's current host. Every column of
// a class shares the row's time term t, and float addition is
// monotonic, so the class's lowest full score is b1+t at column i1 —
// unless b2+t rounds down onto b1+t, in which case a larger base ties
// and may sit at a lower column (see rowRecord).
type classSummary struct {
	b1    float64 // minimum finite base (+Inf when none)
	i1    int     // lowest column reaching b1 (-1 when none)
	b2    float64 // smallest base strictly above b1 (+Inf when none)
	first int     // lowest column with a finite base (-1 when none)
}

var emptySummary = classSummary{b1: math.Inf(1), i1: -1, b2: math.Inf(1), first: -1}

// add folds column ni's base b into the summary, in any column order.
func (c *classSummary) add(ni int, b float64) {
	if math.IsInf(b, 1) {
		return
	}
	if c.first < 0 || ni < c.first {
		c.first = ni
	}
	switch {
	case b < c.b1:
		c.b1, c.i1, c.b2 = b, ni, c.b1
	case b == c.b1:
		c.i1 = min(c.i1, ni)
	case b < c.b2:
		c.b2 = b
	}
}

// update changes column ni's base from old to b. It reports false,
// leaving the summary unusable until the class is rebuilt, when
// removing old could change b1, i1, b2 or first in a way the new value
// does not settle: the summary keeps no multiplicities, so only a
// rescan can tell whether another column still holds the removed
// value. Replacing b2 by a smaller value other than b1 is settled —
// the new value is then the class's b1 or b2 either way.
func (c *classSummary) update(ni int, old, b float64) bool {
	if old == b {
		return true
	}
	if !math.IsInf(old, 1) {
		settled := b < c.b2 && b != c.b1
		if (old == c.b2 && !settled) || (old == c.b1 && ni == c.i1) || (ni == c.first && math.IsInf(b, 1)) {
			return false
		}
	}
	c.add(ni, b)
	return true
}

// rowRecord derives a row's best-move record — the fields incState
// keeps as bestSc, bestNi and firstNi — from its per-class summaries
// sum and per-class time terms timeMove, in O(K) unless a class's
// second-lowest base rounds onto its lowest. base is the row's base
// values, classCols lists each class's columns in ascending order, and
// assign is the column excluded as the VM's current host. The result equals a scan of the
// composed row that keeps the lowest column achieving the minimum
// finite score and the lowest column with any finite score.
func rowRecord(base []float64, classCols [][]int, assign int, sum []classSummary, timeMove []float64) (best float64, bestNi, firstNi int) {
	best, bestNi, firstNi = math.Inf(1), -1, -1
	for k := range sum {
		c, t := &sum[k], timeMove[k]
		if c.first < 0 || math.IsInf(t, 1) {
			continue
		}
		if firstNi < 0 || c.first < firstNi {
			firstNi = c.first
		}
		if c.i1 < 0 {
			continue
		}
		sc, ni := c.b1+t, c.i1
		if !(c.b2+t > sc) {
			// Rounding collapse: a larger base sums to the same score,
			// so the lowest column of the class reaching sc wins.
			for _, j := range classCols[k] {
				if j != assign && !math.IsInf(base[j], 1) && base[j]+t == sc {
					ni = j
					break
				}
			}
		}
		if sc < best || (sc == best && ni < bestNi) {
			best, bestNi = sc, ni
		}
	}
	return best, bestNi, firstNi
}

// compose joins a cell's base and time halves the way score does:
// either half +Inf makes the cell +Inf.
func compose(b, t float64) float64 {
	if math.IsInf(b, 1) {
		return b
	}
	if math.IsInf(t, 1) {
		return t
	}
	return b + t
}

// incState is the incremental solver's working state: the per-VM
// best-move records and round-constant time terms, plus the dense
// score matrix once a round moves a VM. All slices are scratch buffers
// owned by the Scheduler and reused across rounds.
type incState struct {
	// m is the V×H score matrix, row-major: m[vi*H+ni] = Score(ni, vi).
	// The cell at a VM's current assignment holds its current-host
	// cost (the centering value), and is excluded from the best-move
	// records below. It is composed from the base matrix and the time
	// terms only just before a round's first applied move (dense), so
	// a round that moves nothing never touches its V×H cells.
	m     []float64
	dense bool
	// cur[vi] is the round-start current-host cost of VM vi (unused
	// for queued VMs); it stands in for m at the VM's assignment until
	// the matrix is composed.
	cur []float64
	// stay[vi] is scoreTimeStay and timeMove[vi*K+k] scoreTimeMove for
	// class k: the round's time-dependent halves.
	stay     []float64
	timeMove []float64
	// bestNi[vi] is the lowest node index achieving the minimum finite
	// score in row vi excluding the current assignment (-1 = none);
	// bestSc[vi] is that score (+Inf when bestNi is -1).
	bestNi []int
	bestSc []float64
	// firstNi[vi] is the lowest node index with a finite score in row
	// vi excluding the current assignment (-1 = none). It reproduces
	// the naive tie-break when the VM's current host is infeasible:
	// every feasible target then improves by -Inf and the naive scan
	// keeps the first one it meets, which is not necessarily the
	// minimum-score one.
	firstNi []int
}

// reset sizes the state for a round over v candidates and k classes.
func (st *incState) reset(v, k int) {
	st.dense = false
	st.cur = grow(st.cur, v)
	st.stay = grow(st.stay, v)
	st.timeMove = grow(st.timeMove, v*k)
	st.bestNi = grow(st.bestNi, v)
	st.bestSc = grow(st.bestSc, v)
	st.firstNi = grow(st.firstNi, v)
}

// solveIncremental runs the hill climber against the cached matrix.
// It applies exactly the same sequence of moves as solveNaive.
func (sch *Scheduler) solveIncremental(s *shadow, hosts []*cluster.Node, cands []*vm.VM) {
	V, H := len(cands), len(hosts)
	st := &sch.inc

	sch.buildMatrix(s, hosts, cands, st)

	limit := sch.iterationLimit(V)
	const eps = 1e-9
	moves := 0
	for iter := 0; iter < limit; iter++ {
		// Pick the globally best move from the per-VM records. The
		// scan order and strict comparisons replicate the naive
		// evaluator's tie-breaks: earliest VM wins ties, and within a
		// VM the record already holds the earliest qualifying host.
		bestVI, bestNI := -1, -1
		bestDiff := -eps
		for vi := 0; vi < V; vi++ {
			cur := sch.cfg.QueueScore
			if a := s.assign[vi]; a >= 0 {
				if st.dense {
					cur = st.m[vi*H+a]
				} else {
					cur = st.cur[vi]
				}
			}
			var ni int
			var diff float64
			if math.IsInf(cur, 1) {
				// Current host infeasible: any feasible target is an
				// infinite improvement; the naive scan keeps the first.
				ni = st.firstNi[vi]
				if ni < 0 {
					continue
				}
				diff = math.Inf(-1)
			} else {
				ni = st.bestNi[vi]
				if ni < 0 {
					continue
				}
				diff = st.bestSc[vi] - cur
				threshold := -eps
				if cands[vi].State != vm.Queued {
					// Migration hysteresis (queued VMs are exempt).
					threshold = -sch.cfg.MigrationGainMin
				}
				if diff > threshold {
					continue
				}
			}
			if diff < bestDiff {
				bestDiff = diff
				bestVI, bestNI = vi, ni
			}
		}
		if bestVI < 0 {
			break // no negative values left: suboptimal solution found
		}
		if sch.traceVerb >= obs.TraceActions {
			sch.traceMove(s, bestVI, bestNI)
		}
		if !st.dense {
			sch.composeMatrix(s, st)
		}
		from := s.assign[bestVI]
		s.move(bestVI, bestNI)
		moves++
		if iter == limit-1 {
			sch.Stats.LimitHits++
		}
		sch.refreshAfterMove(s, st, bestVI, from, bestNI)
	}
	sch.Stats.Moves += moves
}

// buildMatrix computes the round's base matrix, per-class row
// summaries and per-VM best-move records, carrying the
// time-independent half of unchanged cells over from the previous
// round's snapshot. The time half is evaluated once per ⟨VM, class⟩;
// the records are derived from the summaries (rowRecord) and equal a
// scan of the composed matrix, which is left for composeMatrix.
//
// A row whose VM and column layout (same nodes and classes in the
// same order) are both unchanged since the last round copies its base
// row and summaries, then re-scores only the stale columns and updates
// their classes' summaries (refreshStale). Any other row is filled
// cell by cell, each cell carried or re-scored, and summarized in the
// same pass.
func (sch *Scheduler) buildMatrix(s *shadow, hosts []*cluster.Node, cands []*vm.VM, st *incState) {
	V, H := len(cands), len(hosts)
	cr := &sch.cross
	carry := cr.valid && !sch.cfg.FreshMatrix

	// Column keys: snapshot each host's scoreBase inputs and match it
	// against the previous round's column for the same node object.
	sch.nextCols = grow(sch.nextCols, H)
	sch.colSrc = grow(sch.colSrc, H)
	sch.staleCols = sch.staleCols[:0]
	sameLayout := carry && cr.h == H
	for ni, n := range hosts {
		k := colKey{
			node: n, class: n.Class, epoch: n.Epoch, state: n.State,
			cpu: s.cpu[ni], mem: s.mem[ni], count: s.count[ni],
			creating: n.CreatingOps, migrating: n.MigratingOps, rel: n.Reliability,
		}
		sch.nextCols[ni] = k
		pc, src := -1, -1
		if carry {
			pc = cr.colOf.get(n.ID)
		}
		if pc >= 0 && cr.cols[pc] == k {
			src = pc
		}
		if pc != ni || cr.cols[pc].node != n || cr.cols[pc].class != n.Class {
			sameLayout = false
		}
		sch.colSrc[ni] = src
		if src < 0 {
			sch.staleCols = append(sch.staleCols, ni)
		}
	}

	// Row keys: snapshot each candidate's scoreBase inputs. Both this
	// round's candidates and the previous snapshot are sorted by VM ID,
	// so a single merge scan pairs them without a lookup structure.
	sch.nextRows = grow(sch.nextRows, V)
	sch.rowSrc = grow(sch.rowSrc, V)
	staleRows := 0
	pi := 0
	for vi, v := range cands {
		initial := -1
		if a := s.assign[vi]; a >= 0 {
			initial = hosts[a].ID
		}
		k := rowKey{
			vm: v, epoch: v.Epoch,
			cpu: v.Req.CPU, mem: v.Req.Mem, arch: v.Req.Arch, hyp: v.Req.Hypervisor,
			ftol: v.FaultTolerance, initial: initial,
		}
		sch.nextRows[vi] = k
		src := -1
		if carry {
			for pi < len(cr.rows) && cr.rows[pi].vm.ID < v.ID {
				pi++
			}
			if pi < len(cr.rows) && cr.rows[pi] == k {
				src = pi
			}
		}
		sch.rowSrc[vi] = src
		if src < 0 {
			staleRows++
		}
	}

	sch.collectClasses(hosts)
	K := len(sch.classes)
	sch.rebuild = grow(sch.rebuild, K)

	st.reset(V, K)
	sch.nextBase = grow(sch.nextBase, V*H)
	sch.nextSum = grow(sch.nextSum, V*K)
	if V*H > sch.Stats.MaxSlabCells {
		sch.Stats.MaxSlabCells = V * H
	}
	evals, reused := 0, 0
	for vi := range cands {
		assign := s.assign[vi]
		tm := st.timeMove[vi*K : (vi+1)*K]
		for k, cl := range sch.classes {
			tm[k] = sch.scoreTimeMove(s, vi, cl)
		}
		st.stay[vi] = 0
		if assign >= 0 {
			st.stay[vi] = sch.scoreTimeStay(s, vi)
		}
		base := sch.nextBase[vi*H : (vi+1)*H]
		sum := sch.nextSum[vi*K : (vi+1)*K]
		if src := sch.rowSrc[vi]; sameLayout && src >= 0 {
			copy(base, cr.base[src*H:(src+1)*H])
			copy(sum, cr.sum[src*K:(src+1)*K])
			sch.refreshStale(s, vi, base, sum)
			evals += len(sch.staleCols)
			reused += H - len(sch.staleCols)
		} else {
			for k := range sum {
				sum[k] = emptySummary
			}
			prow := -1
			if src >= 0 {
				prow = src * cr.h
			}
			for ni := range base {
				var b float64
				if pc := sch.colSrc[ni]; prow >= 0 && pc >= 0 {
					b = cr.base[prow+pc]
					reused++
				} else {
					b = sch.scoreBase(s, ni, vi)
					evals++
				}
				base[ni] = b
				if ni != assign {
					sum[sch.classOf[ni]].add(ni, b)
				}
			}
		}
		if assign >= 0 {
			st.cur[vi] = compose(base[assign], st.stay[vi])
		}
		st.bestSc[vi], st.bestNi[vi], st.firstNi[vi] = rowRecord(base, sch.classCols, assign, sum, tm)
	}

	sch.Stats.ScoreEvals += evals
	sch.Stats.ReusedCells += reused
	if carry {
		sch.Stats.CarryRounds++
		sch.Stats.StaleRows += staleRows
		sch.Stats.StaleCols += len(sch.staleCols)
	}

	// Publish this round's snapshot by swapping buffers with the
	// previous one. The base matrix holds round-start values: the
	// hill climb only mutates st.m, and any real-state change the
	// round's own actuation causes will bump epochs and show up in
	// next round's diff.
	cr.base, sch.nextBase = sch.nextBase, cr.base
	cr.sum, sch.nextSum = sch.nextSum, cr.sum
	cr.rows, sch.nextRows = sch.nextRows, cr.rows
	cr.cols, sch.nextCols = sch.nextCols, cr.cols
	cr.h = H
	if !sameLayout {
		cr.colOf.reset(hosts)
	}
	cr.valid = true
}

// refreshStale re-scores the stale columns of a row copied from the
// previous round and updates its summaries in place. A class whose
// summary cannot absorb a change (classSummary.update) is rebuilt
// from its columns once every stale cell is in.
func (sch *Scheduler) refreshStale(s *shadow, vi int, base []float64, sum []classSummary) {
	assign := s.assign[vi]
	rebuild := sch.rebuild[:len(sum)]
	clear(rebuild)
	lost := false
	for _, ni := range sch.staleCols {
		old, b := base[ni], sch.scoreBase(s, ni, vi)
		base[ni] = b
		if k := sch.classOf[ni]; ni != assign && !rebuild[k] && !sum[k].update(ni, old, b) {
			rebuild[k], lost = true, true
		}
	}
	if !lost {
		return
	}
	for k, r := range rebuild {
		if !r {
			continue
		}
		sum[k] = emptySummary
		for _, ni := range sch.classCols[k] {
			if ni != assign {
				sum[k].add(ni, base[ni])
			}
		}
	}
}

// composeMatrix fills the dense score matrix from the round's base
// matrix (already published to the cross-round snapshot) and time
// terms, with score's float grouping, so the move refresh can keep it
// current. Called once per round, before the first move is applied.
func (sch *Scheduler) composeMatrix(s *shadow, st *incState) {
	sch.Stats.DenseRounds++
	st.dense = true
	V, H, K := len(s.vms), len(s.nodes), len(sch.classes)
	base := sch.cross.base
	st.m = grow(st.m, V*H)
	for vi := 0; vi < V; vi++ {
		row, tm, assign := vi*H, st.timeMove[vi*K:(vi+1)*K], s.assign[vi]
		for ni := 0; ni < H; ni++ {
			t := tm[sch.classOf[ni]]
			if ni == assign {
				t = st.stay[vi]
			}
			st.m[row+ni] = compose(base[row+ni], t)
		}
	}
}

// collectClasses gathers the round's distinct node classes
// (first-appearance order) into sch.classes, fills sch.classOf with
// each host's class index, and lists each class's columns (ascending)
// in sch.classCols, for the once-per-⟨VM, class⟩ time terms and the
// per-class summaries.
func (sch *Scheduler) collectClasses(hosts []*cluster.Node) {
	sch.classes = sch.classes[:0]
	sch.classOf = grow(sch.classOf, len(hosts))
	for ni, n := range hosts {
		idx := -1
		for i, cl := range sch.classes {
			if cl == n.Class {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = len(sch.classes)
			sch.classes = append(sch.classes, n.Class)
		}
		sch.classOf[ni] = idx
	}
	sch.classCols = grow(sch.classCols, len(sch.classes))
	for k := range sch.classCols {
		sch.classCols[k] = sch.classCols[k][:0]
	}
	for ni, k := range sch.classOf {
		sch.classCols[k] = append(sch.classCols[k], ni)
	}
}

// refreshAfterMove re-scores the dirty region after move(movedVI,
// from→to): the two endpoint columns (from is -1 when the VM left the
// queue) for every VM, then the moved VM's full row.
func (sch *Scheduler) refreshAfterMove(s *shadow, st *incState, movedVI, from, to int) {
	if from >= 0 {
		sch.refreshColumn(s, st, movedVI, from)
	}
	sch.refreshColumn(s, st, movedVI, to)

	// The moved VM's assignment changed, so every cell of its row is
	// suspect; the two endpoint columns are already fresh.
	H := len(s.nodes)
	row := movedVI * H
	for ni := 0; ni < H; ni++ {
		if ni == from || ni == to {
			continue
		}
		sch.Stats.ScoreEvals++
		st.m[row+ni] = sch.score(s, ni, movedVI)
	}
	st.rescanRow(sch, movedVI, H, s.assign[movedVI])
}

// refreshColumn re-scores column c for every VM and repairs the
// per-VM best-move records it invalidates.
func (sch *Scheduler) refreshColumn(s *shadow, st *incState, movedVI, c int) {
	sch.Stats.ColRefreshes++
	V, H := len(s.vms), len(s.nodes)
	for vj := 0; vj < V; vj++ {
		idx := vj*H + c
		old := st.m[idx]
		sch.Stats.ScoreEvals++
		sc := sch.score(s, c, vj)
		st.m[idx] = sc
		if sc == old {
			continue // unchanged (including +Inf staying +Inf)
		}
		if vj == movedVI {
			continue // full row rescan follows in refreshAfterMove
		}
		if c == s.assign[vj] {
			continue // the cell is vj's current-host cost, not a target
		}
		// Repair vj's best-move record.
		if c == st.bestNi[vj] {
			if sc <= st.bestSc[vj] {
				// The cached best improved in place: still the lowest
				// index achieving the (now smaller) minimum.
				st.bestSc[vj] = sc
				continue
			}
			st.rescanRow(sch, vj, H, s.assign[vj])
			continue
		}
		if math.IsInf(sc, 1) {
			if c == st.firstNi[vj] {
				st.rescanRow(sch, vj, H, s.assign[vj])
			}
			continue
		}
		if st.firstNi[vj] < 0 || c < st.firstNi[vj] {
			st.firstNi[vj] = c
		}
		if st.bestNi[vj] < 0 || sc < st.bestSc[vj] || (sc == st.bestSc[vj] && c < st.bestNi[vj]) {
			st.bestNi[vj], st.bestSc[vj] = c, sc
		}
	}
}

// rescanRow rebuilds VM vi's best-move record from the cached matrix
// row (no score evaluations), excluding the current assignment.
func (st *incState) rescanRow(sch *Scheduler, vi, h, assign int) {
	sch.Stats.RowRescans++
	best, bestn, first := math.Inf(1), -1, -1
	row := vi * h
	for ni := 0; ni < h; ni++ {
		if ni == assign {
			continue
		}
		sc := st.m[row+ni]
		if math.IsInf(sc, 1) {
			continue
		}
		if first < 0 {
			first = ni
		}
		if sc < best {
			best, bestn = sc, ni
		}
	}
	st.bestSc[vi], st.bestNi[vi], st.firstNi[vi] = best, bestn, first
}
