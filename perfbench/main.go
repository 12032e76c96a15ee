// Command perfbench is energysched's benchmark. It runs one named
// workload with a seed, checks the program's outputs, and prints every
// metric by name and unit; the last line of standard output is the
// result as one JSON object. See README.md for the workloads and
// metrics.
//
//	bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
)

// env is one run's settings.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	dir     string // scratch space inside the checkout, removed at exit
}

// outcome is what a workload measured.
type outcome struct {
	setup float64 // seconds until the first timed operation
	wall  float64 // seconds for the workload's fixed unit of work
	lat   samples // ms per timed operation
	rss   float64 // peak resident MB when the timed work ended
	// speed scales setup, wall and latency to the reference machine
	// speed (1 = reported raw; see calib.go).
	speed float64
	tally tally
	layer map[string]float64 // per-layer metrics (traced runs)
	log   io.Writer
}

func newOutcome() *outcome {
	return &outcome{layer: map[string]float64{}, log: os.Stderr, speed: 1}
}

func (o *outcome) logf(format string, args ...any) { fmt.Fprintf(o.log, format+"\n", args...) }

var workloads = map[string]func(*env) (*outcome, error){
	"paper-tables":  runTables,
	"admit-durable": runAdmit,
	"read-mix":      runReadMix,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: paper-tables, admit-durable or read-mix")
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 10, "measurement budget of the run, in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer variant, 0 the end-to-end one")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-tables, admit-durable, read-mix), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 1
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, dir: dir}

	var prof bytes.Buffer
	if e.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	o, err := wl(e)
	if e.traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	res := result{
		Correct:   o.tally.failed == 0,
		Attempted: o.tally.attempted,
		Failed:    o.tally.failed,
		Metrics:   map[string]metric{},
	}
	if e.traced {
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
		for b, v := range shares {
			o.layer["cpu_share."+b] = v
		}
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metric{Value: o.layer[m.name], Unit: m.unit}
		}
	} else {
		f := o.speed
		fmt.Fprintf(stderr, "perfbench: raw setup_s=%.6g wall_s=%.6g p50_ms=%.6g p90_ms=%.6g p99_ms=%.6g; speed factor %.4f\n",
			o.setup, o.wall, o.lat.q(0.5), o.lat.q(0.9), o.lat.q(0.99), f)
		res.Metrics["setup_s"] = metric{o.setup * f, "s"}
		res.Metrics["wall_s"] = metric{o.wall * f, "s"}
		res.Metrics["p50_ms"] = metric{o.lat.q(0.5) * f, "ms"}
		res.Metrics["ok_ratio"] = metric{float64(res.Attempted-res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
		res.Metrics["peak_rss_mb"] = metric{o.rss, "MB"}
	}
	if len(o.tally.byKind) > 0 {
		fmt.Fprintf(stderr, "perfbench: failures by kind: %v\n", o.tally.byKind)
	}
	fmt.Fprintf(stderr, "perfbench: %s: %d timed operations\n", *name, len(o.lat))

	meta, err := json.Marshal(map[string]any{"meta": metadata(*name, e)})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", meta, out)
	return 0
}

// layerMetrics lists every per-layer metric with its unit. A metric a
// workload does not exercise reads 0 on that workload (README.md maps
// each metric to its workload).
var layerMetrics = func() []struct{ name, unit string } {
	ms := []struct{ name, unit string }{
		{"core.schedule_s", "s"}, {"core.schedule_p99_us", "us"}, {"core.rounds", "count"},
		{"core.empty_round_ratio", "ratio"}, {"policy.schedule_s", "s"}, {"datacenter.self_s", "s"},
		{"simkit.events", "count"}, {"datacenter.events", "count"}, {"workload.generate_s", "s"},
		{"fleet.open_s", "s"}, {"fleet.submit_p50_us", "us"}, {"fleet.submit_p99_us", "us"},
		{"fleet.wal_append_s", "s"}, {"fleet.admit_batch_s", "s"}, {"fleet.solver_round_s", "s"},
		{"fleet.jobs_per_wal_append", "count"}, {"fleet.wal_records_appended", "count"},
		{"fleet.compactions", "count"}, {"device.fsync_p50_us", "us"},
		{"fleet.read_p50_us", "us"}, {"fleet.read_p99_us", "us"},
		{"client.overhead_p50_us", "us"}, {"loadgen.late_p99_ms", "ms"},
		{"trace_overhead_ratio", "ratio"}, {"bench.calibration_ms", "ms"},
	}
	for _, r := range []string{"post_jobs", "get_report", "get_cluster", "get_job", "get_series"} {
		ms = append(ms, struct{ name, unit string }{"server." + r + "_p50_us", "us"},
			struct{ name, unit string }{"server." + r + "_p99_us", "us"})
	}
	for _, b := range cpuBuckets {
		ms = append(ms, struct{ name, unit string }{"cpu_share." + b, "ratio"})
	}
	return ms
}()

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// metadata identifies what was measured and where, so numbers from
// different machines or sources are never compared silently.
func metadata(workload string, e *env) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"trace":      e.traced,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the measured source: the git revision when run.sh found
// one, and always a digest of the Go sources and module files, which
// identifies a checkout that is not a git repository.
func commit() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	src := "src:" + hex.EncodeToString(h.Sum(nil))[:16]
	if rev := os.Getenv("PERFBENCH_GIT_REV"); rev != "" {
		return rev + " " + src
	}
	return src
}
