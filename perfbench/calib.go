package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// refCalibrationMs is the calibration kernel's median time, in ms, on
// the 2-vCPU VM the benchmark was written on. paper-tables and
// admit-durable report their times at that machine speed: raw ×
// refCalibrationMs / (the run's median kernel time). Each times the
// kernel between units of its work (table rows, submit chunks), from a
// collected heap and with the daemon idle.
//
// Why: on a shared VM the host's speed drifts by up to 1.9× within
// minutes, and each run of a ten-run series sees a different share of
// it. In one six-run series the tables' wall time spread 36% of its
// median raw and 7% scaled, and in another admit-durable's spread 36%
// raw and 12% scaled (with a copy of the kernel per CPU, since its
// clients and the daemon keep both busy). The kernel uses only the
// standard library, so a change to the program moves the raw times and
// not the kernel; standard error prints both. read-mix reports raw times: its latency
// waits on wake-ups, syscalls and fsync more than on the CPU, and the
// kernel, timed between segments of its schedule, did not track it.
const refCalibrationMs = 15.0

// calibration times a fixed, allocation-free CPU and memory kernel:
// sorting, map lookups and a pointer chase through a 2 MB cycle, the
// mix the simulator and the daemon spend their time on.
type calibration struct {
	keys  []uint64
	index map[uint64]uint32
	next  []uint32
	// works holds one scratch buffer per kernel copy run side by side.
	works [][]uint64
	ms    samples
	sink  atomic.Uint64
}

// newCalibration builds a kernel that runs copies instances side by
// side, one per CPU the timed work keeps busy.
func newCalibration(copies int) *calibration {
	rng := rand.New(rand.NewSource(1))
	c := &calibration{
		keys:  make([]uint64, 1<<14),
		index: make(map[uint64]uint32, 1<<14),
		next:  make([]uint32, 1<<19),
		works: make([][]uint64, copies),
	}
	for i := range c.works {
		c.works[i] = make([]uint64, len(c.keys))
	}
	for i := range c.keys {
		c.keys[i] = rng.Uint64()
		c.index[c.keys[i]] = uint32(i)
	}
	// One random cycle through every slot (Sattolo's algorithm), so the
	// chase cannot settle into a short, cached loop.
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	for i := len(c.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	return c
}

// sample runs the kernel n times, recording each run's time. It
// collects garbage first, so no background GC competes with the kernel.
func (c *calibration) sample(n int) {
	runtime.GC()
	for k := 0; k < n; k++ {
		c.run()
	}
}

// run times one pass of the kernel on every copy.
func (c *calibration) run() {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, w := range c.works {
		wg.Add(1)
		go func(work []uint64) {
			defer wg.Done()
			c.sink.Add(c.kernel(work))
		}(w)
	}
	wg.Wait()
	c.ms = append(c.ms, ms(time.Since(t0)))
}

func (c *calibration) kernel(work []uint64) uint64 {
	copy(work, c.keys)
	slices.Sort(work)
	var sum uint64
	for r := 0; r < 4; r++ {
		for _, key := range work {
			sum += uint64(c.index[key])
		}
	}
	p := uint32(0)
	for i := 0; i < len(c.next); i++ {
		p = c.next[p]
	}
	return sum + uint64(p)
}

// factor converts this run's raw times to the reference speed.
func (c *calibration) factor() float64 { return refCalibrationMs / c.ms.q(0.5) }
