package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ned"
)

// queued reports how many requests wait for a pass, over all keys.
func (co *coalescer) queued() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	n := 0
	for _, ln := range co.lanes {
		n += len(ln.queue)
	}
	return n
}

// holdPasses arms the coalescer's pass seam so the first n engine
// passes block until release closes; entered receives once per held
// pass.
func holdPasses(s *Server, n int) (entered chan struct{}, release chan struct{}) {
	entered, release = make(chan struct{}, n), make(chan struct{})
	var passes atomic.Int32
	s.coal.beforePass = func() {
		if int(passes.Add(1)) <= n {
			entered <- struct{}{}
			<-release
		}
	}
	return entered, release
}

// TestCoalescedKNNNodeIdentical is the coalescing equivalence suite: for
// every backend, KNN requests that queue behind a saturated lane — and
// so run as one shared BatchKNN pass — must return answers
// node-identical to the same queries served one at a time. Batching is
// forced through the pass seam, not timing: every one of the lane's
// GOMAXPROCS passes is held open while the burst queues behind them.
func TestCoalescedKNNNodeIdentical(t *testing.T) {
	const (
		nodes  = 80
		l      = 4
		queued = 30
	)
	gs := ringSpec(nodes)

	for _, backend := range []string{"vp", "bk", "linear", "pruned"} {
		t.Run(backend, func(t *testing.T) {
			s, ts := newTestServer(t, Options{})
			mustCreate(t, ts.URL, CreateRequest{Name: "c", K: 3, Backend: backend, Shards: 3, Graph: gs})
			held := s.coal.maxPasses
			queries := held + queued
			knn := func(i int) ([]NeighborJSON, error) {
				var qr QueryResponse
				status, raw := postJSON(t, ts.URL+"/v1/corpora/c/knn", KNNRequest{Node: i % nodes, L: l}, &qr)
				if status != 200 {
					return nil, fmt.Errorf("knn(%d): %d %s", i, status, raw)
				}
				return qr.Neighbors, nil
			}

			// Reference answers: sequential queries, each a direct pass.
			want := make([][]NeighborJSON, queries)
			for i := range want {
				var err error
				if want[i], err = knn(i); err != nil {
					t.Fatal(err)
				}
			}
			if ss := s.Stats(); ss.CoalesceBatches != 0 || ss.CoalescedRequests != 0 {
				t.Fatalf("sequential queries were batched: %+v", ss)
			}

			entered, release := holdPasses(s, held)
			got := make([][]NeighborJSON, queries)
			var wg sync.WaitGroup
			errs := make(chan error, queries)
			send := func(i int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					if got[i], err = knn(i); err != nil {
						errs <- err
					}
				}()
			}
			for i := 0; i < held; i++ {
				send(i)
			}
			for i := 0; i < held; i++ {
				select {
				case <-entered:
				case <-time.After(10 * time.Second):
					t.Fatal("direct passes never reached the seam")
				}
			}
			for i := held; i < queries; i++ {
				send(i)
			}
			deadline := time.Now().Add(10 * time.Second)
			for s.coal.queued() < queued {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d requests queued behind the held passes", s.coal.queued(), queued)
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			for i := range want {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("query %d (node %d): coalesced answer diverges\n direct:    %+v\n coalesced: %+v",
						i, i%nodes, want[i], got[i])
				}
			}
			// The first held pass to finish takes the whole queue.
			if ss := s.Stats(); ss.CoalesceBatches != 1 || ss.CoalescedRequests != queued {
				t.Fatalf("want 1 batch of %d queued requests, got %+v", queued, ss)
			}
		})
	}
}

// TestCoalescerLoneRequestDirect checks a request on an idle server runs
// at once as a direct engine pass: nothing queues, no batch forms, and
// neither coalescing counter moves.
func TestCoalescerLoneRequestDirect(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, CreateRequest{Name: "c", K: 2, Graph: ringSpec(30)})
	var passes, queuedAtPass atomic.Int32
	s.coal.beforePass = func() {
		passes.Add(1)
		queuedAtPass.Add(int32(s.coal.queued()))
	}
	var qr QueryResponse
	if status, raw := postJSON(t, ts.URL+"/v1/corpora/c/knn", KNNRequest{Node: 3, L: 2}, &qr); status != 200 {
		t.Fatalf("knn: %d %s", status, raw)
	}
	if len(qr.Neighbors) != 2 {
		t.Fatalf("knn answer: %+v", qr)
	}
	if passes.Load() != 1 || queuedAtPass.Load() != 0 {
		t.Fatalf("lone request: %d passes with %d queued, want 1 direct pass", passes.Load(), queuedAtPass.Load())
	}
	if ss := s.Stats(); ss.CoalescedRequests != 0 || ss.CoalesceBatches != 0 {
		t.Fatalf("lone request was counted as coalesced: %+v", ss)
	}
	s.coal.mu.Lock()
	lanes := len(s.coal.lanes)
	s.coal.mu.Unlock()
	if lanes != 0 {
		t.Fatalf("idle coalescer kept %d lanes", lanes)
	}
}

// TestDefaultBackendTenant checks a tenant created without a backend
// name serves from the engine default, the pruned scan.
func TestDefaultBackendTenant(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	info := mustCreate(t, ts.URL, CreateRequest{Name: "c", K: 2, Backend: "", Graph: ringSpec(30)})
	if info.Backend != "pruned" {
		t.Fatalf("create reported backend %q, want pruned", info.Backend)
	}
	var doc StatsDoc
	if status, raw := getJSON(t, ts.URL+"/v1/corpora/c/stats", &doc); status != 200 {
		t.Fatalf("stats: %d %s", status, raw)
	}
	if doc.Stats.Backend != ned.BackendPrunedLinear {
		t.Fatalf("/stats backend %v, want pruned", doc.Stats.Backend)
	}
}

// TestAdmissionControl pins overload semantics: with the in-flight
// budget full, the next query is refused immediately with the 429
// overloaded code — without disturbing the admitted queries, which
// complete normally once unblocked.
func TestAdmissionControl(t *testing.T) {
	const limit = 2
	s := New(Options{MaxInflight: limit})
	admitted := make(chan struct{}, limit)
	release := make(chan struct{})
	s.afterAdmit = func() {
		admitted <- struct{}{}
		<-release
	}
	url := newUnstartedServer(t, s)
	mustCreate(t, url, CreateRequest{Name: "a", K: 2, Graph: ringSpec(40)})

	// Fill the budget with queries parked inside the admission window.
	type result struct {
		status int
		raw    []byte
	}
	results := make(chan result, limit)
	for i := 0; i < limit; i++ {
		go func(i int) {
			status, raw := postJSON(t, url+"/v1/corpora/a/knn", KNNRequest{Node: i, L: 2}, nil)
			results <- result{status, raw}
		}(i)
	}
	for i := 0; i < limit; i++ {
		select {
		case <-admitted:
		case <-time.After(5 * time.Second):
			t.Fatal("queries never reached the admission seam")
		}
	}

	// The budget is full: the next query must be refused fast.
	start := time.Now()
	status, raw := postJSON(t, url+"/v1/corpora/a/knn?timeout_ms=30000", KNNRequest{Node: 9, L: 2}, nil)
	fastFail := time.Since(start)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget query: status %d (body %s), want 429", status, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Error.Code != "overloaded" {
		t.Fatalf("over-budget body %s, want code overloaded", raw)
	}
	if fastFail > time.Second {
		t.Fatalf("429 took %v; overload refusal must not queue", fastFail)
	}
	if ss := s.Stats(); ss.Inflight != limit || ss.Overloads != 1 {
		t.Fatalf("stats during overload: %+v", ss)
	}

	// Control-plane calls stay responsive while queries are saturated.
	if st, _ := getJSON(t, url+"/healthz", nil); st != 200 {
		t.Fatalf("healthz during overload: %d", st)
	}
	if st, _ := getJSON(t, url+"/v1/corpora/a/stats", nil); st != 200 {
		t.Fatalf("stats endpoint during overload: %d", st)
	}

	// Releasing the seam lets the admitted queries finish untouched.
	close(release)
	for i := 0; i < limit; i++ {
		r := <-results
		if r.status != 200 {
			t.Fatalf("admitted query finished with %d (body %s), want 200", r.status, r.raw)
		}
	}
	if ss := s.Stats(); ss.Inflight != 0 {
		t.Fatalf("inflight after drain: %+v", ss)
	}
}
