package main

import (
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// selfTimes returns, in ms, each span named name minus the part of its
// interval that its child spans cover.
func (t *tracer) selfTimes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name || s.End == 0 {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(s, kids[s.ID]))/1e6)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
	var total, upTo int64 = 0, p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, upTo), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			upTo = hi
		}
	}
	return total
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Trace headers carry a client span's ids to the server-side middleware.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Span"
)

// middleware records a "serve.handler" span around the server's handler
// for every request that carries the trace headers.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err1 := strconv.Atoi(r.Header.Get(hdrReq))
		parent, err2 := strconv.Atoi(r.Header.Get(hdrParent))
		if err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := t.begin("serve.handler", parent, req)
		next.ServeHTTP(w, r)
		t.end(id)
	})
}
