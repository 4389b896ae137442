package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"hetopt/internal/cluster"
	"hetopt/internal/serve"
)

// Headers the load generator tags requests with while tracing, so the
// handler wrapper can hand its timing back to the client that sent it.
const (
	clientHeader = "X-Loadbench-Client"
	seqHeader    = "X-Loadbench-Seq"
)

// slot carries the handler time of one client's request in flight.
type slot struct {
	seq atomic.Int64
	ns  atomic.Int64
}

// timedHandler wraps a node's public handler. With tracing off it adds
// one atomic load per request. With tracing on it times ServeHTTP and
// publishes the duration before net/http flushes the response, so a
// client that has read its whole response can read the time too.
type timedHandler struct {
	h       http.Handler
	tracing atomic.Bool
	slots   []slot
	// lastForwarded is the handler time of the last request another
	// node proxied here (sequential probes read it).
	lastForwarded atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.tracing.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := int64(time.Since(start))
	if r.Header.Get(cluster.ForwardedHeader) != "" {
		t.lastForwarded.Store(d)
		return
	}
	c, err1 := strconv.Atoi(r.Header.Get(clientHeader))
	seq, err2 := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
	if err1 == nil && err2 == nil && c >= 0 && c < len(t.slots) {
		t.slots[c].ns.Store(d)
		t.slots[c].seq.Store(seq)
	}
}

// handlerTime returns the handler time the wrapper recorded for client
// c's request seq, or -1 when it has none.
func (t *timedHandler) handlerTime(c int, seq int64) int64 {
	if t.slots[c].seq.Load() != seq {
		return -1
	}
	return t.slots[c].ns.Load()
}

// node is one in-process serve.Server behind a loopback listener.
type node struct {
	url  string
	srv  *serve.Server
	th   *timedHandler
	hs   *http.Server
	done chan struct{}
}

// maxClients bounds the closed-loop clients and so the per-node
// handler-time slots; probes use the slot after them.
const maxClients = 64

// startNodes builds n nodes — a consistent-hash cluster when n > 1 —
// and starts serving them on loopback.
func startNodes(n int, opt serve.Options, replicate bool) ([]*node, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	nodes := make([]*node, n)
	for i := range nodes {
		o := opt
		if n > 1 {
			o.Cluster = &serve.ClusterOptions{NodeID: urls[i], Peers: urls, Replicate: replicate}
		}
		srv, err := serve.NewCluster(o)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			stopNodes(nodes[:i])
			return nil, err
		}
		th := &timedHandler{h: srv, slots: make([]slot, maxClients+1)}
		nd := &node{url: urls[i], srv: srv, th: th, hs: &http.Server{Handler: th}, done: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(nd.done)
			_ = nd.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
		}(lns[i])
		nodes[i] = nd
	}
	return nodes, nil
}

// stopNodes shuts the listeners down, drains every server and waits for
// the serving goroutines to end.
func stopNodes(nodes []*node) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, nd := range nodes {
		if nd == nil {
			continue
		}
		errs = append(errs, nd.hs.Shutdown(ctx))
		<-nd.done
		errs = append(errs, nd.srv.Drain(ctx))
	}
	return errors.Join(errs...)
}

// owner returns the index of the node owning key (0 on a single node).
func owner(nodes []*node, key string) int {
	o := nodes[0].srv.ClusterOwner(key)
	for i, nd := range nodes {
		if nd.url == o {
			return i
		}
	}
	return 0
}

// post sends one request body and reads the whole answer.
func post(c *http.Client, url string, body []byte, hdr http.Header) (int, []byte, error) {
	var buf bytes.Buffer
	code, err := postInto(c, url, body, hdr, &buf)
	return code, buf.Bytes(), err
}

// newClient returns an HTTP client with one keep-alive connection per
// node, so a closed-loop client never holds more than one request open.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// serverOptions are the options every node of a workload is built
// with: the service's defaults, with the workload's store bound.
func serverOptions(spec workloadSpec) serve.Options {
	return serve.Options{Workers: 4, QueueSize: 64, StoreSize: spec.storeSize}
}

// setUp builds a workload's nodes and trains every model pair its
// traffic uses on every node, through the service: one small ML
// request per (node, pair) whose key that node owns. The returned time
// is what a fresh deployment pays before it answers its first request.
func setUp(spec workloadSpec) ([]*node, float64, error) {
	start := time.Now()
	nodes, err := startNodes(spec.nodes, serverOptions(spec), true)
	if err != nil {
		return nil, 0, err
	}
	c := newClient()
	defer closeClient(c)
	for i := range nodes {
		for _, p := range spec.pairs {
			if err := trainVia(c, nodes, i, p); err != nil {
				stopNodes(nodes)
				return nil, 0, fmt.Errorf("training %v on node %d: %w", p, i, err)
			}
		}
	}
	return nodes, time.Since(start).Seconds(), nil
}

// trainVia makes node i train pair p: it sends the node a one-iteration
// SAML request it owns and waits for the answer.
func trainVia(c *http.Client, nodes []*node, i int, p modelPair) error {
	workload := map[string]string{"dna": "dna:human", "spmv": "spmv:medium"}[p.family]
	for seed := int64(-1); seed > -1000; seed-- {
		raw := serve.TuneRequest{Workload: workload, Platform: p.platform, Method: "saml", Iterations: 1, Seed: seed}
		canon, err := raw.Normalize()
		if err != nil {
			return err
		}
		if owner(nodes, canon.Key()) != i {
			continue
		}
		body, _ := json.Marshal(raw)
		code, resp, err := post(c, nodes[i].url+"/v1/jobs?wait=1", body, nil)
		if err != nil {
			return err
		}
		var st statusWire
		if err := json.Unmarshal(resp, &st); err != nil || code != http.StatusOK || st.State != serve.JobDone {
			return fmt.Errorf("training request answered %d: %s", code, resp)
		}
		return nil
	}
	return fmt.Errorf("no training key owned by node %d", i)
}

// nodeMetrics reads GET /v1/metrics from every node.
func nodeMetrics(c *http.Client, nodes []*node) ([]serve.Metrics, error) {
	out := make([]serve.Metrics, len(nodes))
	for i, nd := range nodes {
		resp, err := c.Get(nd.url + "/v1/metrics")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// metricsDelta sums the change in the counters the per-layer metrics
// read, over every node.
type metricsDelta struct {
	lookups, hits, evictions         int64
	forwarded, replSent, replDropped int64
}

func deltaOf(before, after []serve.Metrics) metricsDelta {
	var d metricsDelta
	for i := range before {
		b, a := before[i], after[i]
		d.lookups += a.Store.Lookups - b.Store.Lookups
		d.hits += a.Store.Hits - b.Store.Hits
		d.evictions += a.Store.Evictions - b.Store.Evictions
		if a.Cluster != nil && b.Cluster != nil {
			d.forwarded += a.Cluster.Forwarded - b.Cluster.Forwarded
			d.replSent += a.Cluster.Replication.Sent - b.Cluster.Replication.Sent
			d.replDropped += a.Cluster.Replication.Dropped - b.Cluster.Replication.Dropped
		}
	}
	return d
}
