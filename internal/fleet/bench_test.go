package fleet

import (
	"fmt"
	"sync"
	"testing"

	"energysched"
	"energysched/internal/workload"
)

// BenchmarkAdmitRouterK1 measures concurrent admission throughput
// through the admission queue: each iteration pushes a fixed burst of
// jobs from 8 submitters through a fresh fleet's bounded queue into
// the event loop's admission turns. The work per job (WAL off,
// in-memory sim) is constant, so the number tracks the intake hand-off.
// The name predates the single queue and is kept so the CI gate keeps
// comparing it against the committed baseline.
func BenchmarkAdmitRouterK1(b *testing.B) {
	const submitters, perSubmitter = 8, 128
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := Open("bench", Config{Policy: "SB", Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := 0; j < perSubmitter; j++ {
					if _, err := f.Submit(energysched.JobSpec{
						CPU: 100 + float64((g+j)%3)*100, Mem: 5, Duration: 600,
					}); err != nil {
						b.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		f.Close()
	}
	b.ReportMetric(float64(submitters*perSubmitter), "jobs/iter")
}

// BenchmarkFleetReopen measures durable recovery at history scale:
// each iteration opens a fleet whose directory already holds n
// admitted jobs, which replays the snapshot and WAL and re-simulates
// the whole history. Preparing the directory (admitting the jobs with
// SyncOS) is untimed, and so is Close, so the number is Open alone.
// Comparing the 5k and 20k cases shows whether recovery grows linearly
// with history.
func BenchmarkFleetReopen(b *testing.B) {
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Horizon = 120 * 24 * 3600
	tr, err := workload.Generate(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			if len(tr.Jobs) < n {
				b.Fatalf("generator yielded %d jobs, need %d", len(tr.Jobs), n)
			}
			cfg := Config{Policy: "SB", Seed: 1, Dir: b.TempDir(), SnapshotInterval: 256, WALSync: SyncOS}
			f, err := Open("bench", cfg)
			if err != nil {
				b.Fatal(err)
			}
			got, err := f.SubmitSource(workload.NewTraceSource(&workload.Trace{Jobs: tr.Jobs[:n]}), 256)
			f.Close()
			if err != nil || got != n {
				b.Fatalf("admitted %d of %d jobs: %v", got, n, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := Open("bench", cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				f.Close()
				b.StartTimer()
			}
		})
	}
}
