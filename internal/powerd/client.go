package powerd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"greensched/internal/power"
)

// Config parameterizes a sidecar client. Only Addr is required; the
// zero value of everything else picks conservative defaults sized for
// a local socket.
type Config struct {
	// Addr is the sidecar's address in SplitAddr syntax
	// ("unix:/run/powerd.sock", "/run/powerd.sock", "host:port").
	Addr string

	// Timeout bounds one dial-plus-exchange attempt (default 250ms —
	// the sidecar is local; a slow answer is a hung answer).
	Timeout time.Duration
	// Retries is how many extra attempts follow a failed exchange
	// within one reading (default 1; negative disables retry).
	Retries int
	// StalenessSec is the last-good cache window: a reading this
	// recent is served in place of an unreachable sidecar before the
	// client falls back to analytic curves (default 5).
	StalenessSec float64
	// BreakerAfter trips the circuit breaker after this many
	// consecutive failed readings (default 3): calls then skip the
	// socket entirely — cache, then fallback — while a background
	// probe waits for the sidecar to return.
	BreakerAfter int
	// ReprobeSec is the background probe period while the breaker is
	// open (default 0.25).
	ReprobeSec float64

	// Fallback serves readings when the sidecar is unusable and the
	// cache is stale — wire the built-in analytic curves
	// (power.CurveSource / power.StaticSource) here so estimation
	// degrades to the in-process model instead of going blind. Nil:
	// unusable sidecar means no reading.
	Fallback power.Source

	// Logf receives the one-shot fallback and recovery notices
	// (default log.Printf). Fallback is deliberately loud — once per
	// outage, never per call, never silent.
	Logf func(format string, args ...any)
	// Clock is the staleness clock in seconds (default: monotonic
	// since NewClient). Tests inject it to pin cache-window edges.
	Clock func() float64
}

// Stats is a point-in-time snapshot of the client's counters — the
// source of the greensched_power_* metric families.
type Stats struct {
	// Requests counts protocol exchanges attempted (including retries
	// and breaker probes); Errors the ones that failed.
	Requests uint64
	Errors   uint64
	// Fallbacks counts readings the local Fallback curves served;
	// CacheHits the ones the last-good cache absorbed first.
	Fallbacks uint64
	CacheHits uint64
	// BreakerOpen reports the breaker state; while open every reading
	// is local and a background probe polls the sidecar.
	BreakerOpen bool
	// LastGoodSec is the age of the newest successful reading across
	// all nodes (-1 before the first) — the staleness gauge.
	LastGoodSec float64
}

// Reading is one node's cached last-good value.
type Reading struct {
	Node   string
	Watts  power.Watts
	AgeSec float64
}

// errApp marks an application-level reply (node unknown, bad request):
// the sidecar is alive and authoritative, so the failure must not trip
// the breaker.
var errApp = errors.New("powerd: application error")

type cached struct {
	w  power.Watts
	at float64
}

// Client is the consuming half of the protocol: a concurrency-safe
// power.Source backed by an out-of-process sidecar. Every reading is
// one request/response exchange on a single multiplexed connection,
// with a per-attempt timeout and bounded retry; failures degrade
// loudly through the last-good cache to the analytic Fallback, and a
// circuit breaker stops hammering a dead socket while a background
// probe watches for recovery.
type Client struct {
	cfg              Config
	network, address string

	// connMu serializes exchanges on the one connection (and lazy
	// redials). Breaker-open readings never touch it.
	connMu sync.Mutex
	conn   net.Conn
	sc     *bufio.Scanner

	// stateMu guards the cache and breaker state.
	stateMu     sync.Mutex
	cache       map[string]cached
	consecFails int
	breakerOpen bool
	probing     bool
	warnArmed   bool

	requests  atomic.Uint64
	errors    atomic.Uint64
	fallbacks atomic.Uint64
	cacheHits atomic.Uint64

	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewClient returns a client for the sidecar at cfg.Addr. It does NOT
// dial: a sidecar absent at boot is a normal, loud-fallback condition,
// and the first reading (or breaker probe) connects when it can.
func NewClient(cfg Config) (*Client, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("powerd: client needs an address")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 250 * time.Millisecond
	}
	if cfg.Retries == 0 {
		cfg.Retries = 1
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.StalenessSec <= 0 {
		cfg.StalenessSec = 5
	}
	if cfg.BreakerAfter <= 0 {
		cfg.BreakerAfter = 3
	}
	if cfg.ReprobeSec <= 0 {
		cfg.ReprobeSec = 0.25
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Clock == nil {
		start := time.Now()
		cfg.Clock = func() float64 { return time.Since(start).Seconds() }
	}
	network, address := SplitAddr(cfg.Addr)
	return &Client{
		cfg: cfg, network: network, address: address,
		cache: make(map[string]cached), warnArmed: true,
		done: make(chan struct{}),
	}, nil
}

// NodePowerW implements power.Source: the node's current draw from
// the sidecar, or — degrading loudly — from the last-good cache
// within the staleness window, or from the analytic Fallback.
func (c *Client) NodePowerW(node string, metrics []string, values []float64) (power.Watts, bool) {
	if node == "" {
		return 0, false
	}
	if c.closed.Load() || c.breakerIsOpen() {
		return c.serveLocal(node, metrics, values)
	}
	w, err := c.fetch(node, metrics, values)
	if err == nil {
		c.noteSuccess(node, w)
		return w, true
	}
	c.noteFailure(err)
	return c.serveLocal(node, metrics, values)
}

// LastReading implements power.ReadingSource.
func (c *Client) LastReading(node string) (power.Watts, float64, bool) {
	now := c.cfg.Clock()
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	r, ok := c.cache[node]
	if !ok {
		return 0, 0, false
	}
	return r.w, now - r.at, true
}

// Readings returns every node's cached last-good value, sorted by
// node — what refreshes the per-node watts gauges at scrape time.
func (c *Client) Readings() []Reading {
	now := c.cfg.Clock()
	c.stateMu.Lock()
	out := make([]Reading, 0, len(c.cache))
	for node, r := range c.cache {
		out = append(out, Reading{Node: node, Watts: r.w, AgeSec: now - r.at})
	}
	c.stateMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	st := Stats{
		Requests:    c.requests.Load(),
		Errors:      c.errors.Load(),
		Fallbacks:   c.fallbacks.Load(),
		CacheHits:   c.cacheHits.Load(),
		LastGoodSec: -1,
	}
	now := c.cfg.Clock()
	c.stateMu.Lock()
	st.BreakerOpen = c.breakerOpen
	for _, r := range c.cache {
		if age := now - r.at; st.LastGoodSec < 0 || age < st.LastGoodSec {
			st.LastGoodSec = age
		}
	}
	c.stateMu.Unlock()
	return st
}

// Close stops the background probe and drops the connection. Readings
// after Close serve from cache/fallback only.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(c.done)
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.sc = nil
	}
	c.connMu.Unlock()
	c.wg.Wait()
	return nil
}

func (c *Client) breakerIsOpen() bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.breakerOpen
}

// fetch asks the sidecar for one reading, retrying transient failures
// up to cfg.Retries times.
func (c *Client) fetch(node string, metrics []string, values []float64) (power.Watts, error) {
	req := PowerRequest{V: ProtocolVersion, Node: node, Metrics: metrics, Values: values}
	var err error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		c.requests.Add(1)
		var w power.Watts
		w, err = c.exchange(req)
		if err == nil {
			return w, nil
		}
		c.errors.Add(1)
		if errors.Is(err, errApp) {
			return 0, err // authoritative answer; retry won't change it
		}
	}
	return 0, err
}

// exchange performs one request/response round trip, dialing lazily,
// and returns the reading. Failures other than an application-level
// reply reset the connection so the next attempt redials.
func (c *Client) exchange(req PowerRequest) (power.Watts, error) {
	line, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	line = append(line, '\n')

	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.conn == nil {
		conn, err := net.DialTimeout(c.network, c.address, c.cfg.Timeout)
		if err != nil {
			return 0, fmt.Errorf("powerd: dial %s: %w", c.cfg.Addr, err)
		}
		c.conn = conn
		c.sc = bufio.NewScanner(conn)
		c.sc.Buffer(make([]byte, 4096), maxLine)
	}
	reset := func() {
		c.conn.Close()
		c.conn = nil
		c.sc = nil
	}
	c.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
	if _, err := c.conn.Write(line); err != nil {
		reset()
		return 0, fmt.Errorf("powerd: write: %w", err)
	}
	if !c.sc.Scan() {
		err := c.sc.Err()
		if err == nil {
			err = errors.New("connection closed mid-exchange")
		}
		reset()
		return 0, fmt.Errorf("powerd: read: %w", err)
	}
	w, err := decodeReply(c.sc.Bytes())
	if err != nil && !errors.Is(err, errApp) {
		// The stream may be desynchronized (malformed JSON, short
		// line): drop the connection rather than guess at framing.
		reset()
	}
	return w, err
}

// decodeReply reads one reply line. A reply that carries a msg is an
// application-level error; a reading that is negative or not finite is
// malformed, like undecodable JSON or a foreign protocol version.
func decodeReply(line []byte) (power.Watts, error) {
	var resp PowerResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		return 0, fmt.Errorf("powerd: malformed reply: %w", err)
	}
	switch w := resp.Watts; {
	case resp.V != ProtocolVersion:
		return 0, fmt.Errorf("powerd: server speaks protocol v%d, want v%d", resp.V, ProtocolVersion)
	case resp.Msg != "":
		return 0, fmt.Errorf("%w: %s", errApp, resp.Msg)
	case w < 0 || math.IsNaN(w) || math.IsInf(w, 0):
		return 0, fmt.Errorf("powerd: malformed reply: reading %v W", w)
	}
	return resp.Watts, nil
}

// noteSuccess caches the reading and closes the failure streak.
func (c *Client) noteSuccess(node string, w power.Watts) {
	now := c.cfg.Clock()
	c.stateMu.Lock()
	c.cache[node] = cached{w: w, at: now}
	c.consecFails = 0
	if !c.warnArmed {
		c.cfg.Logf("powerd: sidecar %s recovered; resuming external readings", c.cfg.Addr)
		c.warnArmed = true
	}
	c.stateMu.Unlock()
}

// noteFailure advances the breaker. Application-level replies reset
// the streak instead: the sidecar answered, it just has no number.
func (c *Client) noteFailure(err error) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if errors.Is(err, errApp) {
		c.consecFails = 0
		return
	}
	c.consecFails++
	if c.consecFails < c.cfg.BreakerAfter || c.breakerOpen {
		return
	}
	c.breakerOpen = true
	if !c.probing && !c.closed.Load() {
		c.probing = true
		c.wg.Add(1)
		go c.reprobe()
	}
}

// serveLocal answers without the sidecar: last-good cache within the
// staleness window first, then the analytic Fallback — counted, and
// announced once per outage.
func (c *Client) serveLocal(node string, metrics []string, values []float64) (power.Watts, bool) {
	now := c.cfg.Clock()
	c.stateMu.Lock()
	if r, ok := c.cache[node]; ok && now-r.at <= c.cfg.StalenessSec {
		c.stateMu.Unlock()
		c.cacheHits.Add(1)
		return r.w, true
	}
	if c.warnArmed {
		c.warnArmed = false
		c.cfg.Logf("powerd: sidecar %s unreachable; falling back to analytic power curves", c.cfg.Addr)
	}
	c.stateMu.Unlock()
	c.fallbacks.Add(1)
	if c.cfg.Fallback == nil {
		return 0, false
	}
	return c.cfg.Fallback.NodePowerW(node, metrics, values)
}

// reprobe polls the sidecar while the breaker is open and closes it on
// the first healthy versioned reply.
func (c *Client) reprobe() {
	defer c.wg.Done()
	ticker := time.NewTicker(time.Duration(c.cfg.ReprobeSec * float64(time.Second)))
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			c.stateMu.Lock()
			c.probing = false
			c.stateMu.Unlock()
			return
		case <-ticker.C:
		}
		c.requests.Add(1)
		_, err := c.exchange(PowerRequest{V: ProtocolVersion})
		if err != nil {
			c.errors.Add(1)
			continue
		}
		c.stateMu.Lock()
		c.breakerOpen = false
		c.consecFails = 0
		c.probing = false
		if !c.warnArmed {
			c.cfg.Logf("powerd: sidecar %s recovered; resuming external readings", c.cfg.Addr)
			c.warnArmed = true
		}
		c.stateMu.Unlock()
		return
	}
}
