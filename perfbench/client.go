package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"ned"
	"ned/internal/serve"
)

// tenantName is the corpus every in-process server holds.
const tenantName = "bench"

// httpTimeout bounds one request. The slowest single KNN seen on the PGP
// analog under the default backend took about 8 s, so a request that
// exceeds this is a real failure, and it counts in failed.
const httpTimeout = 60 * time.Second

// served is an in-process nedserve: the server's handler on a loopback
// listener, plus a client for its tenant.
type served struct {
	srv  *serve.Server
	ts   *httptest.Server
	http *http.Client
	base string
	tr   *tracer
}

// startServer listens on loopback as nedbench -exp serve does. With a
// tracer, a middleware records the server-side span of every request.
func startServer(srv *serve.Server, tr *tracer) *served {
	h := srv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	ts := httptest.NewServer(h)
	return &served{
		srv:  srv,
		ts:   ts,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: httpTimeout},
		base: ts.URL + "/v1/corpora/" + tenantName + "/",
		tr:   tr,
	}
}

// close stops the listener and waits for its connections to end.
func (s *served) close() {
	s.http.CloseIdleConnections()
	s.ts.Close()
}

// post sends one JSON request to the tenant's endpoint and decodes the
// reply into out. Any transport error, non-200 status (429 and 503
// included) or timeout is an error. req and parent link the client span
// ("serve.http") into a traced request.
func (s *served) post(endpoint string, body, out any, req, parent int) (time.Duration, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	hr, err := http.NewRequest(http.MethodPost, s.base+endpoint, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	id := s.tr.begin("serve.http", parent, req)
	if id != 0 {
		hr.Header.Set(hdrReq, strconv.Itoa(req))
		hr.Header.Set(hdrParent, strconv.Itoa(id))
	}
	start := time.Now()
	resp, err := s.http.Do(hr)
	if err != nil {
		s.tr.end(id)
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	s.tr.end(id)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return 0, fmt.Errorf("%s: decoding reply: %w", endpoint, err)
		}
	}
	return elapsed, nil
}

// knn asks the tenant for the l nearest neighbors of node v.
func (s *served) knn(v ned.NodeID, l, req, parent int) ([]ned.Neighbor, time.Duration, error) {
	var resp serve.QueryResponse
	d, err := s.post("knn", serve.KNNRequest{Node: int(v), L: l}, &resp, req, parent)
	if err != nil {
		return nil, 0, err
	}
	nbs := make([]ned.Neighbor, len(resp.Neighbors))
	for i, n := range resp.Neighbors {
		nbs[i] = ned.Neighbor{Node: ned.NodeID(n.Node), Dist: n.Dist}
	}
	return nbs, d, nil
}

// mutate removes or inserts node v ("remove" or "insert").
func (s *served) mutate(endpoint string, v ned.NodeID, req, parent int) (time.Duration, error) {
	return s.post(endpoint, serve.NodesRequest{Nodes: []int{int(v)}}, nil, req, parent)
}
