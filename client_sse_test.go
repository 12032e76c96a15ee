package energysched

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// sseServer serves body verbatim as a text/event-stream, then ends the
// stream.
func sseServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, body)
	}))
	t.Cleanup(hs.Close)
	return hs
}

// TestSSEReadersShareLineCap: all three tails read lines of up to
// 1 MiB, so an event-stream frame between the old 64 KiB Events cap
// and 1 MiB decodes instead of failing with a scanner error.
func TestSSEReadersShareLineCap(t *testing.T) {
	long := strings.Repeat("x", 200*1024)
	ctx := context.Background()

	hs := sseServer(t, `id: 7`+"\nevent: place\ndata: "+`{"kind":"place","vm":3,"node":1,"aux":-1,"detail":"`+long+`"}`+"\n\n")
	var seqs []uint64
	if err := NewClient(hs.URL).Events(ctx, 0, func(seq uint64, e Event) error {
		if e.Kind != "place" || e.VM != 3 {
			t.Errorf("decoded %+v", e)
		}
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(seqs) != 1 || seqs[0] != 7 {
		t.Fatalf("Events delivered seqs %v, want [7]", seqs)
	}

	hs = sseServer(t, "id: 1\nevent: round\ndata: "+`{"seq":1,"policy":"`+long+`"}`+"\n\n")
	rounds := 0
	if err := NewClient(hs.URL).TraceTail(ctx, 0, func(TraceRound) error { rounds++; return nil }); err != nil {
		t.Fatalf("TraceTail: %v", err)
	}
	hs = sseServer(t, "id: 1\nevent: step\ndata: "+`{"seq":1,"kind":"`+long+`"}`+"\n\n")
	steps := 0
	if err := NewClient(hs.URL).JourneyTail(ctx, 0, func(JourneyEvent) error { steps++; return nil }); err != nil {
		t.Fatalf("JourneyTail: %v", err)
	}
	if rounds != 1 || steps != 1 {
		t.Fatalf("TraceTail delivered %d rounds, JourneyTail %d steps; want 1 each", rounds, steps)
	}
}

// TestSSEReadersReturnGapError: every tail turns a gap event into a
// terminal *GapError carrying the evicted range, and never hands the
// gap payload to the callback.
func TestSSEReadersReturnGapError(t *testing.T) {
	hs := sseServer(t, "event: gap\ndata: {\"requested\":2,\"oldest\":9}\n\n")
	c := NewClient(hs.URL)
	ctx := context.Background()
	fail := func() error { t.Error("callback saw the gap event"); return nil }
	for name, tail := range map[string]func() error{
		"events":   func() error { return c.Events(ctx, 2, func(uint64, Event) error { return fail() }) },
		"trace":    func() error { return c.TraceTail(ctx, 2, func(TraceRound) error { return fail() }) },
		"journeys": func() error { return c.JourneyTail(ctx, 2, func(JourneyEvent) error { return fail() }) },
	} {
		var ge *GapError
		if err := tail(); !errors.As(err, &ge) || ge.Gap.Requested != 2 || ge.Gap.Oldest != 9 {
			t.Fatalf("%s: err = %v, want a GapError for (2, 9)", name, err)
		}
	}
}
