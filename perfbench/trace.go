package main

// The traced run's per-layer instruments. Each wraps a call into one
// module's public API from outside; none of them runs in an untraced
// (end-to-end) run.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"energysched/internal/policy"
)

// scheduleTimer accumulates the time a policy spends in Schedule.
type scheduleTimer struct {
	total  time.Duration
	lat    samples // µs per round
	rounds int
	empty  int // rounds that returned no actions
}

// timedPolicy times every Schedule call of the wrapped policy.
type timedPolicy struct {
	policy.Policy
	timer *scheduleTimer
}

func (p timedPolicy) Schedule(ctx *policy.Context) []policy.Action {
	t0 := time.Now()
	acts := p.Policy.Schedule(ctx)
	d := time.Since(t0)
	p.timer.total += d
	p.timer.lat = append(p.timer.lat, us(d))
	p.timer.rounds++
	if len(acts) == 0 {
		p.timer.empty++
	}
	return acts
}

// reqIDHeader pairs a client-observed request with its handler time.
const reqIDHeader = "X-Perfbench-Req"

// routeTimer wraps the daemon's handler and times ServeHTTP per route.
type routeTimer struct {
	next http.Handler

	mu      sync.Mutex
	byRoute map[string]samples // µs
	byReq   map[string]time.Duration
}

func newRouteTimer(next http.Handler) *routeTimer {
	return &routeTimer{next: next, byRoute: map[string]samples{}, byReq: map[string]time.Duration{}}
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	rt.next.ServeHTTP(w, r)
	d := time.Since(t0)
	route := routeOf(r.Method, r.URL.Path)
	rt.mu.Lock()
	rt.byRoute[route] = append(rt.byRoute[route], us(d))
	if id := r.Header.Get(reqIDHeader); id != "" {
		rt.byReq[id] = d
	}
	rt.mu.Unlock()
}

// handlerTime returns (and forgets) the handler time of request id.
func (rt *routeTimer) handlerTime(id string) (time.Duration, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	d, ok := rt.byReq[id]
	delete(rt.byReq, id)
	return d, ok
}

func (rt *routeTimer) route(name string) samples {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append(samples(nil), rt.byRoute[name]...)
}

// routeOf names the routes the benchmark sends; the metric names are
// server.<route>_p50_us and server.<route>_p99_us.
func routeOf(method, path string) string {
	switch {
	case method == http.MethodPost && strings.HasSuffix(path, "/jobs"):
		return "post_jobs"
	case strings.HasSuffix(path, "/report"):
		return "get_report"
	case strings.HasSuffix(path, "/cluster"):
		return "get_cluster"
	case strings.HasSuffix(path, "/series"):
		return "get_series"
	case strings.Contains(path, "/jobs/"):
		return "get_job"
	}
	return "other"
}

// taggingTransport stamps each request of one serial connection with
// an id, so the caller can pair its own latency with the handler's.
type taggingTransport struct {
	base   http.RoundTripper
	prefix string
	n      int
	last   string
}

func (t *taggingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n++
	t.last = t.prefix + strconv.Itoa(t.n)
	r = r.Clone(r.Context())
	r.Header.Set(reqIDHeader, t.last)
	return t.base.RoundTrip(r)
}

// promSums reads the _sum and _count of every histogram in a /metrics
// exposition, keyed by family name plus suffix.
func promSums(body io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, rest := line[:sp], line[sp+1:]
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		if !strings.HasSuffix(name, "_sum") && !strings.HasSuffix(name, "_count") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

func scrapeMetrics(baseURL string) (map[string]float64, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return promSums(resp.Body)
}

// fsyncFloor writes and fsyncs n frame-sized records in dir: the device
// cost under every acknowledged admission. It returns µs per write+fsync.
func fsyncFloor(dir string, frame int, n int) (samples, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := bytes.Repeat([]byte{'x'}, frame)
	var out samples
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
		out = append(out, us(time.Since(t0)))
	}
	return out, f.Close()
}

// cpuBuckets are the cpu_share.<bucket> metrics: the repository's
// modules by name, and the runtime and standard-library areas the
// serving path spends time in.
var cpuBuckets = []string{
	"simkit", "datacenter", "core", "policy", "model", "workload",
	"fleet", "server", "obs", "energysched", "perfbench",
	"runtime", "net", "encoding", "syscall", "other",
}

// bucketOf maps a Go package path to its cpu_share bucket.
func bucketOf(pkg string) string {
	const internal = "energysched/internal/"
	switch {
	case strings.HasPrefix(pkg, internal):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, internal), "/")
		switch mod {
		case "simkit", "datacenter", "core", "policy", "workload", "fleet", "server":
			return mod
		case "cluster", "vm", "power", "dvfs", "sla", "xen", "economics", "timeline":
			return "model"
		case "obs", "metrics":
			return "obs"
		}
		return "other"
	case pkg == "energysched":
		return "energysched"
	case pkg == "main" || strings.HasPrefix(pkg, "energysched/perfbench"):
		return "perfbench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "crypto") ||
		pkg == "bufio" || strings.HasPrefix(pkg, "mime") || strings.HasPrefix(pkg, "vendor/"):
		return "net"
	case strings.HasPrefix(pkg, "encoding/") || pkg == "reflect" || pkg == "strconv" ||
		strings.HasPrefix(pkg, "unicode"):
		return "encoding"
	case pkg == "syscall" || pkg == "os" || strings.HasPrefix(pkg, "internal/poll") ||
		strings.HasPrefix(pkg, "internal/syscall"):
		return "syscall"
	}
	return "other"
}

// packageOf extracts the package path from a symbol name such as
// "energysched/internal/core.(*Scheduler).Schedule".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares splits the self time of a gzipped pprof CPU profile by
// bucket, as shares of the profile's total.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byBucket := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		name := ""
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			name = p.strings[p.funcNames[fns[0]]]
		}
		byBucket[bucketOf(packageOf(name))] += v
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
		if total > 0 {
			out[b] = byBucket[b] / total
		}
	}
	return out, nil
}

// profile holds the parts of a pprof profile.proto that self time
// needs: samples (leaf location first), each location's functions
// (innermost inlined first), function names and the string table.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64
	funcNames map[uint64]int64
	strings   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the protobuf wire format of profile.proto
// (github.com/google/pprof/proto/profile.proto) for the fields above.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := walkFields(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			if err := walkFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := walkFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := walkFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, fmt.Errorf("profile: function name index %d out of range", idx)
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed (data) or not.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// walkFields calls fn for each field of a protobuf message: varints
// arrive as v with nil data, length-delimited fields as data.
func walkFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
