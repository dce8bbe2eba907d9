package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ned"
)

// admission is the bounded in-flight query budget: a semaphore that
// fails fast instead of queuing, so an overloaded server spends its
// cycles finishing admitted work and answering 429s in microseconds
// rather than stacking goroutines behind queries it will only slow
// down.
type admission struct {
	slots     chan struct{}
	overloads atomic.Int64
}

func newAdmission(limit int) *admission {
	return &admission{slots: make(chan struct{}, limit)}
}

// tryAcquire claims a slot or reports overload immediately.
func (a *admission) tryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		a.overloads.Add(1)
		return false
	}
}

func (a *admission) release() { <-a.slots }

// inflight is the currently admitted query count.
func (a *admission) inflight() int { return len(a.slots) }

// limit is the admission capacity.
func (a *admission) limit() int { return cap(a.slots) }

// coalKey groups coalescable requests: same corpus (by engine pointer,
// so a dropped-and-recreated name never mixes corpora) and same l.
type coalKey struct {
	c *ned.Corpus
	l int
}

// coalResult is one member's share of a batch.
type coalResult struct {
	nbs []ned.Neighbor
	err error
}

// coalReq is one queued KNN request.
type coalReq struct {
	ctx  context.Context
	sig  ned.Signature
	done chan coalResult // buffered: the batch never blocks on a member that left
}

// coalLane is the per-key pass accounting: how many engine passes are
// in flight and which requests wait for the next one.
type coalLane struct {
	running int
	queue   []*coalReq
}

// maxCoalesceBatch caps how many queued requests one pass takes.
const maxCoalesceBatch = 64

// coalescer batches concurrent single-node KNN requests against the
// same corpus into shared BatchKNN executor passes, without ever
// waiting for companions. A request runs at once, as a direct engine
// call, while fewer than maxPasses passes are in flight for its
// (corpus, l) key; otherwise it queues, and the next pass to finish
// takes the whole queue (up to maxCoalesceBatch) as one BatchKNN. An
// idle server therefore adds no wait at all, and a saturated one turns
// n independent shard fan-outs into one executor pass over n queries —
// the engine's own batching path.
//
// Answers are node-identical to direct KNN calls: a batch member's
// query signature is extracted from the same graph node the direct
// path would use, and BatchKNN runs the same cascade + canonical
// (distance, node) merge per query. The equivalence suite pins this.
type coalescer struct {
	maxPasses int

	// onPanic, when set, observes a recovered panic from a batch pass
	// (counted and logged by the server). Batches run outside any HTTP
	// handler, so without recovery here a panicking engine call would
	// kill the whole daemon, not one connection.
	onPanic func(p any)

	// beforePass, when set, runs at the start of every engine pass,
	// direct or batched — a test seam for holding passes open.
	beforePass func()

	mu    sync.Mutex
	lanes map[coalKey]*coalLane

	batches   atomic.Int64 // multi-request executor passes run
	coalesced atomic.Int64 // requests served by those passes
}

// newCoalescer allows maxPasses concurrent passes per key before
// requests start to queue.
func newCoalescer(maxPasses int) *coalescer {
	return &coalescer{maxPasses: maxPasses, lanes: make(map[coalKey]*coalLane)}
}

// knn answers one single-node KNN request: directly when its lane has a
// free pass, else from the batch it queues for. A queued member whose
// context dies stops waiting immediately; the batch it joined keeps
// running for the others. The caller has checked that the corpus is
// undirected and has a graph; a bad node gets the engine's typed error
// from a direct call.
func (co *coalescer) knn(ctx context.Context, c *ned.Corpus, v ned.NodeID, l int) ([]ned.Neighbor, error) {
	key := coalKey{c, l}
	var req *coalReq
	for {
		co.mu.Lock()
		ln := co.lanes[key]
		if ln == nil {
			ln = &coalLane{}
			co.lanes[key] = ln
		}
		if ln.running < co.maxPasses {
			ln.running++
			co.mu.Unlock()
			return co.direct(ctx, key, ln, v)
		}
		if req != nil {
			ln.queue = append(ln.queue, req)
			co.mu.Unlock()
			break
		}
		co.mu.Unlock()
		// Extract outside the lock, then look again: a pass may have
		// finished meanwhile.
		sig, err := c.Signature(v)
		if err != nil {
			return c.KNN(ctx, v, l) // the engine's own typed error
		}
		req = &coalReq{ctx: ctx, sig: sig, done: make(chan coalResult, 1)}
	}

	select {
	case res := <-req.done:
		return res.nbs, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// direct runs one request as its own pass on ln.
func (co *coalescer) direct(ctx context.Context, key coalKey, ln *coalLane, v ned.NodeID) ([]ned.Neighbor, error) {
	defer co.release(key, ln)
	co.pass()
	return key.c.KNN(ctx, v, key.l)
}

func (co *coalescer) pass() {
	if co.beforePass != nil {
		co.beforePass()
	}
}

// release ends one pass on ln. When requests queued behind it, the
// pass's slot goes straight to a batch over them; otherwise it frees.
func (co *coalescer) release(key coalKey, ln *coalLane) {
	co.mu.Lock()
	if len(ln.queue) == 0 {
		ln.running--
		if ln.running == 0 {
			delete(co.lanes, key)
		}
		co.mu.Unlock()
		return
	}
	n := min(len(ln.queue), maxCoalesceBatch)
	reqs := ln.queue[:n:n]
	if ln.queue = ln.queue[n:]; len(ln.queue) == 0 {
		ln.queue = nil
	}
	co.mu.Unlock()
	go func() {
		defer co.release(key, ln)
		co.run(key, reqs)
	}()
}

// run executes a batch taken off a lane. A panic out of the engine is
// recovered: every member that has not received a result yet gets a
// typed error instead of hanging until its context dies, and the
// daemon survives.
func (co *coalescer) run(key coalKey, reqs []*coalReq) {
	defer func() {
		if p := recover(); p != nil {
			if co.onPanic != nil {
				co.onPanic(p)
			}
			err := fmt.Errorf("%w: coalesced batch: %v", ErrPanic, p)
			for _, r := range reqs {
				select {
				case r.done <- coalResult{err: err}:
				default: // already answered before the panic
				}
			}
		}
	}()
	co.pass()
	co.runBatch(key, reqs)
}

func (co *coalescer) runBatch(key coalKey, reqs []*coalReq) {
	// Members that gave up while queued are no longer waiting.
	live := reqs[:0:0]
	for _, r := range reqs {
		if r.ctx.Err() == nil {
			live = append(live, r)
		}
	}
	reqs = live
	switch len(reqs) {
	case 0:
		return
	case 1:
		// Nothing to share: serve under the request's own context, and
		// don't count it as coalesced.
		r := reqs[0]
		nbs, err := key.c.KNNSignature(r.ctx, r.sig, key.l)
		r.done <- coalResult{nbs, err}
		return
	}
	co.batches.Add(1)
	co.coalesced.Add(int64(len(reqs)))

	// The batch context cancels only when every member has given up:
	// one impatient client must not abort a pass others still want,
	// while a wholly abandoned pass should stop burning executor time.
	execCtx, cancel := context.WithCancel(context.Background())
	execDone := make(chan struct{})
	var waiting atomic.Int32
	waiting.Store(int32(len(reqs)))
	for _, r := range reqs {
		go func(rc context.Context) {
			select {
			case <-rc.Done():
				if waiting.Add(-1) == 0 {
					cancel()
				}
			case <-execDone:
			}
		}(r.ctx)
	}

	sigs := make([]ned.Signature, len(reqs))
	for i, r := range reqs {
		sigs[i] = r.sig
	}
	results, err := key.c.BatchKNN(execCtx, sigs, key.l)
	close(execDone)
	cancel()
	for i, r := range reqs {
		if err != nil {
			r.done <- coalResult{err: err}
		} else {
			r.done <- coalResult{nbs: results[i]}
		}
	}
}

// stats reports the coalescer's lifetime counters.
func (co *coalescer) stats() (batches, coalesced int64) {
	return co.batches.Load(), co.coalesced.Load()
}
