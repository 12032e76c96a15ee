package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"energysched"
	"energysched/internal/fleet"
	"energysched/internal/server"
	"energysched/internal/workload"
)

// daemonConfig is energyschedd's default configuration with a durable
// root: SB policy, max pacing, WAL fsync on every admission, compaction
// every 256 records.
func daemonConfig(walDir string) server.Config {
	return server.Config{
		Policy:           "SB",
		Seed:             1,
		LambdaMin:        30,
		LambdaMax:        90,
		Score:            &energysched.ScoreParams{Cempty: 20, Cfill: 40},
		SnapshotDir:      filepath.Join(walDir, "snapshots"),
		WALDir:           walDir,
		SnapshotInterval: 256,
		WALSync:          fleet.SyncAlways,
		MaxFleets:        64,
	}
}

// fleetConfig is the configuration daemonConfig gives the default fleet.
func fleetConfig(walDir string) fleet.Config {
	c := daemonConfig(walDir)
	return fleet.Config{
		Policy: c.Policy, Seed: c.Seed, LambdaMin: c.LambdaMin, LambdaMax: c.LambdaMax,
		Score: c.Score, SnapshotDir: c.SnapshotDir, SnapshotInterval: c.SnapshotInterval,
		WALSync: c.WALSync, Dir: filepath.Join(walDir, server.DefaultFleet),
	}
}

// daemon is one in-process energyschedd: server.New behind an
// http.Server on a loopback port.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	done   chan error
	routes *routeTimer // traced phases only
}

// startDaemon opens the daemon on walDir (recovering whatever history
// it holds) and serves it. It returns the time server.New took: the
// daemon's cold start.
func startDaemon(walDir string, traced bool) (*daemon, time.Duration, error) {
	t0 := time.Now()
	srv, err := server.New(daemonConfig(walDir))
	open := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	d := &daemon{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	var h http.Handler = srv.Handler()
	if traced {
		d.routes = newRouteTimer(h)
		h = d.routes
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, open, nil
}

// stop shuts the HTTP server down, waits for it, and closes the daemon.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	d.srv.Close()
	return err
}

func (d *daemon) fleet() (*fleet.Fleet, error) { return d.srv.Manager().Get(server.DefaultFleet) }

// conn is one client of the daemon. Clients beyond nproc share a
// connection, so the benchmark never opens more than nproc.
type conn struct {
	api      *energysched.Client
	base     *http.Transport
	tag      *taggingTransport // traced phases only
	routes   *routeTimer
	overhead samples // µs of client time outside the handler
}

func newConns(d *daemon, n int) []*conn {
	bases := make([]*http.Transport, min(n, runtime.NumCPU()))
	for i := range bases {
		bases[i] = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	}
	conns := make([]*conn, n)
	for i := range conns {
		c := &conn{base: bases[i%len(bases)], routes: d.routes}
		var rt http.RoundTripper = c.base
		if d.routes != nil {
			c.tag = &taggingTransport{base: c.base, prefix: fmt.Sprintf("c%d-", i)}
			rt = c.tag
		}
		c.api = energysched.NewClient(d.url).Fleet(server.DefaultFleet)
		c.api.HTTPClient = &http.Client{Transport: rt}
		conns[i] = c
	}
	return conns
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.base.CloseIdleConnections()
	}
}

// do runs one request; in a traced phase it also records the client's
// time outside the handler (transport plus JSON encode and decode).
func (c *conn) do(fn func(api *energysched.Client) error) error {
	t0 := time.Now()
	err := fn(c.api)
	if c.tag != nil {
		total := time.Since(t0)
		if h, ok := c.routes.handlerTime(c.tag.last); ok {
			c.overhead = append(c.overhead, us(total-h))
		}
	}
	return err
}

// spec turns a trace job into a request body; withSubmit false leaves
// the submit time out, which the daemon reads as "now".
func spec(j energysched.Job, withSubmit bool) energysched.JobSpec {
	s := energysched.JobSpec{
		Name: j.Name, CPU: j.CPU, Mem: j.Mem, Duration: j.Duration,
		DeadlineFactor: j.DeadlineFactor, FaultTolerance: j.FaultTolerance,
		Arch: j.Arch, Hypervisor: j.Hypervisor,
	}
	if withSubmit {
		submit := j.Submit
		s.Submit = &submit
	}
	return s
}

// prepareHistory admits jobs into a fresh durable fleet under dir and
// shuts it down, leaving the snapshot and WAL a restart recovers.
func prepareHistory(dir string, jobs []energysched.Job) error {
	srv, err := server.New(daemonConfig(dir))
	if err != nil {
		return err
	}
	defer srv.Close()
	f, err := srv.Manager().Get(server.DefaultFleet)
	if err != nil {
		return err
	}
	n, err := f.SubmitSource(workload.NewTraceSource(&workload.Trace{Jobs: jobs}), 256)
	if err != nil {
		return err
	}
	if n != len(jobs) {
		return fmt.Errorf("history: admitted %d of %d jobs", n, len(jobs))
	}
	return nil
}

// copyDir copies a durable root: its directories and regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// offlineReport simulates jobs offline, as energysched.Run does, and
// renders the result as the daemon's wire report. The daemon numbers
// admitted jobs in arrival order, so the offline trace does too.
func offlineReport(jobs []energysched.Job) (energysched.ServiceReport, error) {
	tr := energysched.Trace{Jobs: make([]energysched.Job, len(jobs))}
	for i, j := range jobs {
		j.ID = i
		tr.Jobs[i] = j
	}
	c := daemonConfig("")
	sim, err := energysched.NewSimulation(energysched.Options{
		Policy: c.Policy, Seed: c.Seed, LambdaMin: c.LambdaMin, LambdaMax: c.LambdaMax,
		Score: c.Score, Trace: &tr,
	})
	if err != nil {
		return energysched.ServiceReport{}, err
	}
	rep, err := sim.Run()
	if err != nil {
		return energysched.ServiceReport{}, err
	}
	return fleet.ServiceReportOf(rep, true), nil
}

// latencies returns the latencies of records in ms.
func latencies(recs ...[]opRecord) samples {
	var out samples
	for _, rs := range recs {
		for _, r := range rs {
			out = append(out, ms(r.latency))
		}
	}
	return out
}

func countOps(t *tally, recs ...[]opRecord) {
	for _, rs := range recs {
		for _, r := range rs {
			t.op(r.err)
		}
	}
}
