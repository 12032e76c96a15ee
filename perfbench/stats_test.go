package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"energysched"
)

// TestQuantileMatchesSort checks the selection-based quantile against
// the nearest-rank element of a fully sorted copy.
func TestQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for _, n := range []int{1, 2, 3, 10, 99, 100, 1001, 5000} {
		for _, shape := range []string{"random", "sorted", "reversed", "duplicates"} {
			xs := make([]float64, n)
			for i := range xs {
				switch shape {
				case "random":
					xs[i] = rng.ExpFloat64()
				case "sorted":
					xs[i] = float64(i)
				case "reversed":
					xs[i] = float64(n - i)
				case "duplicates":
					xs[i] = float64(rng.Intn(4))
				}
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range qs {
				k := int(math.Ceil(q*float64(n))) - 1
				k = max(0, min(k, n-1))
				if got, want := samples(xs).q(q), sorted[k]; got != want {
					t.Fatalf("n=%d %s q=%v: got %v, want %v", n, shape, q, got, want)
				}
			}
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("quantile of no samples should be NaN")
	}
}

// TestTallyCountsFailures checks that 409s, 429s, transport errors and
// failed output checks all count as failed operations.
func TestTallyCountsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var s energysched.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&s); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		switch s.Name {
		case "conflict":
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(energysched.APIError{Status: 409, Message: "in the virtual past"})
		case "busy":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(energysched.APIError{Status: 429, Message: "queue full"})
		default:
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(energysched.JobStatus{ID: 1})
		}
	}))
	api := energysched.NewClient(srv.URL)
	ctx := context.Background()
	var tl tally
	for _, name := range []string{"ok", "conflict", "busy"} {
		_, err := api.SubmitJob(ctx, energysched.JobSpec{Name: name, CPU: 100, Duration: 60})
		tl.op(err)
	}
	srv.Close()
	_, err := api.SubmitJob(ctx, energysched.JobSpec{Name: "ok", CPU: 100, Duration: 60})
	if err == nil {
		t.Fatal("submit to a closed server succeeded")
	}
	tl.op(err)
	tl.check(true)
	tl.check(false)

	if tl.attempted != 6 || tl.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 6 and 4", tl.attempted, tl.failed)
	}
	for kind, want := range map[string]int{"http 409": 1, "http 429": 1, "transport": 1, "check": 1} {
		if tl.byKind[kind] != want {
			t.Errorf("%s failures: got %d, want %d (all: %v)", kind, tl.byKind[kind], want, tl.byKind)
		}
	}
	tl.op(fmt.Errorf("submit: %w", &energysched.APIError{Status: 503}))
	if tl.byKind["http 503"] != 1 {
		t.Errorf("wrapped API error not classified by status: %v", tl.byKind)
	}
}
