package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"amped/internal/serve"
)

// node is one serve.Server behind a real HTTP server on a loopback port.
type node struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error // Serve's return value
}

// fleet is the set of nodes one workload runs against: the front node the
// client talks to, plus the peers a coordinator shards across.
type fleet struct {
	front *node
	peers []*node

	// While measuring is set, every connection that carries a request to
	// the front node is recorded in used: the load generator's connections.
	measuring atomic.Bool
	used      sync.Map // net.Conn → struct{}
}

func startNode(cfg serve.Config, onConn func(net.Conn, http.ConnState)) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		srv:  serve.New(cfg),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	n.hs = &http.Server{Handler: n.srv.Handler(), ConnState: onConn}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// stop drains the HTTP server, stops the service's background work and
// waits for the serving goroutine to return.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	n.srv.Close()
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// bootFleet starts the peers, then the front node configured with their
// URLs, and waits until every node answers /healthz with 200.
func bootFleet(front serve.Config, peers int) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < peers; i++ {
		p, err := startNode(serve.Config{}, nil)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.peers = append(f.peers, p)
		front.Peers = append(front.Peers, p.url)
	}
	var err error
	f.front, err = startNode(front, f.countConn)
	if err != nil {
		f.stop()
		return nil, err
	}
	for _, n := range f.nodes() {
		if err := waitHealthy(n.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) nodes() []*node {
	if f.front == nil {
		return f.peers
	}
	return append([]*node{f.front}, f.peers...)
}

func (f *fleet) stop() error {
	var err error
	for _, n := range f.nodes() {
		err = errors.Join(err, n.stop())
	}
	return err
}

func (f *fleet) countConn(c net.Conn, st http.ConnState) {
	if st == http.StateActive && f.measuring.Load() {
		f.used.Store(c, struct{}{})
	}
}

// clientConns counts the connections that carried measured requests.
func (f *fleet) clientConns() int {
	n := 0
	f.used.Range(func(any, any) bool { n++; return true })
	return n
}

// healthClient probes without keep-alive, so no probe connection lingers
// beside the load generator's.
var healthClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// waitHealthy polls /healthz until it answers 200, for at most 5 s.
func waitHealthy(url string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := healthClient.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %w", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// client is one closed-loop client of the load generator: one goroutine
// on at most one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	id     string // X-Request-Id
	start  time.Time
	d      time.Duration // round trip up to the last body byte
}

// do sends one request and reads the whole reply.
func (c *client) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r := reply{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.d = time.Since(r.start)
		return r, err
	}
	r.body, err = io.ReadAll(resp.Body)
	r.d = time.Since(r.start)
	resp.Body.Close()
	r.status, r.id = resp.StatusCode, resp.Header.Get("X-Request-Id")
	return r, err
}

// tally counts one client's outcomes; clients merge theirs at the end, so
// the counters take no lock. Latencies go to the run's shared samples.
type tally struct {
	attempted, failed int64
	ops, cells        int64
	errs              []string // the first few failures
	samples           *samples // nil where latencies are not kept
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 3 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ops += o.ops
	t.cells += o.cells
	for _, e := range o.errs {
		if len(t.errs) < 3 {
			t.errs = append(t.errs, e)
		}
	}
}

// record keeps one latency of the given kind.
func (t *tally) record(kind int, d time.Duration) {
	if t.samples != nil {
		t.samples.add(kind, ms(d))
	}
}

// reservoirCap bounds the latencies kept per request kind. Past it, each new
// latency replaces a kept one at random (reservoir sampling): the kept ones
// stay a uniform sample of all of them, and the harness's own memory, which
// peak_rss_mb counts, does not grow with the request rate.
const reservoirCap = 50_000

// sample is one kept latency and the slice it was measured in.
type sample struct {
	ms    float64
	slice int
}

// samples keeps a run's latencies by request kind.
type samples struct {
	slice atomic.Int64 // the slice being measured
	mu    sync.Mutex
	seen  [2]int
	kept  [2][]sample
	rng   *rand.Rand
}

func newSamples() *samples {
	s := &samples{rng: rand.New(rand.NewSource(1))}
	for k := range s.kept {
		s.kept[k] = make([]sample, 0, reservoirCap)
	}
	return s
}

func (s *samples) add(kind int, ms float64) {
	x := sample{ms, int(s.slice.Load())}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[kind]++
	if len(s.kept[kind]) < reservoirCap {
		s.kept[kind] = append(s.kept[kind], x)
	} else if j := s.rng.Intn(s.seen[kind]); j < reservoirCap {
		s.kept[kind][j] = x
	}
}

// latencies returns the kept latencies of a kind in ms, each multiplied by
// its slice's scale, or as measured when scales is nil.
func (s *samples) latencies(kind int, scales []float64) []float64 {
	out := make([]float64, len(s.kept[kind]))
	for i, x := range s.kept[kind] {
		out[i] = x.ms
		if scales != nil {
			out[i] *= scales[x.slice]
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// send issues one request, checks the reply against the reference and
// records the outcome.
func (c *client) send(t *tally, req *request) {
	t.attempted++
	r, err := c.do(http.MethodPost, req.path, req.body)
	if err == nil {
		err = check(req, r.status, r.body)
	}
	if err != nil {
		t.fail(err)
		return
	}
	t.ops++
	t.cells += req.cells
	t.record(req.kind, r.d)
}
