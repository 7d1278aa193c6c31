package middleware

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"greensched/internal/estvec"
	"greensched/internal/obs"
)

// ErrTransport marks a transport-layer failure — dial, encode, decode,
// a connection dropped mid-exchange, a malformed frame, a caller that
// stopped waiting — as opposed to an application error the remote
// returned. Agents treat it like any failed child (the subtree is
// masked, the election proceeds) and clients test with errors.Is to
// tell a lost SED from a failed request.
var ErrTransport = errors.New("transport failure")

// The wire protocol deploys the middleware across machines like DIET.
// It is gob over one persistent connection per peer; a frame is one
// self-delimiting gob message. A request's ID comes back on its reply,
// so requests share the connection and replies return as they finish.
// Writers lock for one encode. The client's one reader routes replies
// to callers; the server runs each request in its own goroutine.
// A request carries its caller's deadline, and a caller that gives up
// sends wireCancel. There is no version: every deployment builds both
// ends from one tree, and peers built before request IDs cannot talk.

type wireKind uint8

const (
	wireEstimate wireKind = iota + 1
	wireSolve
	wireStats  // the remote SED's observability snapshot, for Master.SEDStats
	wireCancel // ends the context of the request with its ID; no reply
)

type wireMsg struct {
	ID       uint64
	Kind     wireKind
	Deadline int64 // ns left at sending (0 = none): the clocks may differ
	Req      Request
}

type wireReply struct {
	ID      uint64
	Err     string
	Vectors estvec.List
	Resp    Response
	Stats   SEDStats
}

// Endpoint serves a Child (agent or SED) over TCP. SEDs additionally
// serve Solve calls.
type Endpoint struct {
	child  Child
	solver Solver // nil for pure agents
	ln     net.Listener
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup // accept loop, readers, requests in flight
}

// Serve starts a TCP endpoint on addr ("127.0.0.1:0" for an ephemeral
// port). The returned endpoint is already accepting.
func Serve(addr string, child Child, solver Solver) (*Endpoint, error) {
	if child == nil {
		return nil, fmt.Errorf("middleware: endpoint needs a child")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	e := &Endpoint{child: child, solver: solver, ln: ln, conns: make(map[net.Conn]struct{})}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the bound address.
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// Close stops accepting and closes every connection, which ends the
// context of each request in flight, then waits for them to return.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for conn := range e.conns {
		conn.Close()
	}
	e.mu.Unlock()
	err := e.ln.Close()
	e.wg.Wait()
	return err
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.conns[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.handle(conn)
	}
}

// serverConn is the server end of one connection.
type serverConn struct {
	e      *Endpoint
	conn   net.Conn
	ctx    context.Context // ended when the connection is lost
	cancel context.CancelFunc
	dec    *gob.Decoder // used by one reader at a time
	mu     sync.Mutex
	active map[uint64]context.CancelFunc // requests in flight, by ID
	wmu    sync.Mutex                    // held for one reply's encode
	enc    *gob.Encoder
	out    wireReply // the reply being encoded, guarded by wmu
}

var framePool = sync.Pool{New: func() any { return new(wireMsg) }}

func (e *Endpoint) handle(conn net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	sc := &serverConn{e: e, conn: conn, ctx: ctx, cancel: cancel, dec: gob.NewDecoder(conn),
		active: make(map[uint64]context.CancelFunc), enc: gob.NewEncoder(conn)}
	sc.read()
}

// read is the connection's reader until it decodes a request: then it
// hands the reading on to a new goroutine and serves that request on
// the stack that decoded it. Losing the connection (hang-up, bad frame,
// Close) ends the context of every request on it.
func (sc *serverConn) read() {
	defer sc.e.wg.Done()
	msg := framePool.Get().(*wireMsg)
	defer framePool.Put(msg)
	for {
		*msg = wireMsg{} // gob leaves the fields a frame omits untouched
		if err := sc.dec.Decode(msg); err != nil {
			sc.cancel()
			sc.conn.Close()
			sc.e.mu.Lock()
			delete(sc.e.conns, sc.conn)
			sc.e.mu.Unlock()
			return
		}
		if msg.Kind != wireCancel {
			break
		}
		sc.mu.Lock()
		if stop := sc.active[msg.ID]; stop != nil {
			stop()
		}
		sc.mu.Unlock()
	}
	var ctx context.Context
	var stop context.CancelFunc
	if msg.Deadline > 0 {
		ctx, stop = context.WithTimeout(sc.ctx, time.Duration(msg.Deadline))
	} else {
		ctx, stop = context.WithCancel(sc.ctx)
	}
	sc.mu.Lock()
	sc.active[msg.ID] = stop
	sc.mu.Unlock()
	sc.e.wg.Add(1)
	go sc.read()

	reply := sc.e.answer(ctx, msg.Kind, msg.Req)
	reply.ID = msg.ID
	sc.mu.Lock()
	delete(sc.active, msg.ID)
	sc.mu.Unlock()
	stop()
	sc.wmu.Lock()
	sc.out = reply
	err := sc.enc.Encode(&sc.out)
	sc.out = wireReply{}
	sc.wmu.Unlock()
	if err != nil {
		sc.conn.Close() // a torn frame poisons the stream; the reader ends
	}
}

func (e *Endpoint) answer(ctx context.Context, kind wireKind, req Request) wireReply {
	var reply wireReply
	var err error
	switch kind {
	case wireEstimate:
		reply.Vectors, err = e.child.Estimate(ctx, req)
	case wireSolve:
		if e.solver == nil {
			err = fmt.Errorf("middleware: endpoint %s cannot solve", e.child.Name())
		} else {
			reply.Resp, err = e.solver.Solve(ctx, req)
		}
	case wireStats:
		if src, ok := e.solver.(statser); ok {
			reply.Stats = src.Stats()
		} else if src, ok := e.child.(statser); ok {
			reply.Stats = src.Stats()
		} else {
			err = fmt.Errorf("middleware: endpoint %s exposes no stats", e.child.Name())
		}
	default:
		err = fmt.Errorf("middleware: unknown wire kind %d", kind)
	}
	if err != nil {
		return wireReply{Err: err.Error()}
	}
	return reply
}

// Remote is a client-side handle to a TCP endpoint; it implements both
// Child (Estimate) and Solver (Solve), so remote SEDs and agents compose
// into hierarchies like local ones. Calls share its one connection.
type Remote struct {
	name string
	addr string
	// timeout bounds each call — its dial, each write, the wait for
	// its reply — not the connection. A caller's earlier context
	// deadline wins. A call that runs out is cancelled on the remote
	// and fails with ErrTransport; the connection stays up for the
	// others. Dial sets 10 s; tests shorten it.
	timeout time.Duration
	sink    *spanSink
	mu      sync.Mutex // guards conn, enc, seq and pending
	conn    net.Conn
	enc     *gob.Encoder
	seq     uint64
	pending map[uint64]*pendingCall // the calls awaiting a reply on conn
	wmu     sync.Mutex              // held for one frame's encode
	out     wireMsg                 // the frame being encoded, guarded by wmu
}

// pendingCall is one call awaiting its reply, pooled with its timer.
type pendingCall struct {
	done  chan struct{} // signalled once reply or err is set
	timer *time.Timer
	reply wireReply
	err   error
}

var callPool = sync.Pool{New: func() any { return &pendingCall{done: make(chan struct{}, 1)} }}

// Dial returns a lazy-connecting remote handle. name must match the
// remote child's name (used in error messages and directories).
func Dial(name, addr string) *Remote {
	return &Remote{name: name, addr: addr, timeout: 10 * time.Second, pending: make(map[uint64]*pendingCall)}
}

// SetSpans makes the handle emit dial/encode/decode spans for traced
// requests under the caller's span (dispatch for Solve, the agent's
// estimate for Estimate), so the trace shows the wire. Nil: off.
func (r *Remote) SetSpans(w *obs.SpanWriter) { r.sink = newSpanSink(r.name, w, nil) }

// Stats fetches the remote SED's observability snapshot over the wire.
// Its error return keeps Remote apart from the in-process statser
// surface; Master.SEDStats skips daemons whose round trip fails.
func (r *Remote) Stats() (SEDStats, error) {
	reply, err := r.call(context.Background(), wireMsg{Kind: wireStats})
	return reply.Stats, err
}

// Name implements Child.
func (r *Remote) Name() string { return r.name }

// Estimate implements Child over the wire.
func (r *Remote) Estimate(ctx context.Context, req Request) (estvec.List, error) {
	reply, err := r.call(ctx, wireMsg{Kind: wireEstimate, Req: req})
	return reply.Vectors, err
}

// Solve implements Solver over the wire.
func (r *Remote) Solve(ctx context.Context, req Request) (Response, error) {
	reply, err := r.call(ctx, wireMsg{Kind: wireSolve, Req: req})
	return reply.Resp, err
}

// Close tears down the connection; the calls in flight fail with
// ErrTransport.
func (r *Remote) Close() error { return r.drop(nil, r.fail("closing", net.ErrClosed)) }

func (r *Remote) fail(op string, err error) error {
	return fmt.Errorf("middleware: %s %s: %w: %w", op, r.name, ErrTransport, err)
}

func (r *Remote) call(ctx context.Context, msg wireMsg) (wireReply, error) {
	r.mu.Lock()
	if r.conn == nil {
		dial := r.sink.begin(obs.StageDial, msg.Req)
		conn, err := (&net.Dialer{Timeout: r.timeout}).DialContext(ctx, "tcp", r.addr)
		dial.end(err)
		if err != nil {
			r.mu.Unlock()
			return wireReply{}, fmt.Errorf("middleware: dialing %s (%s): %w: %w", r.name, r.addr, ErrTransport, err)
		}
		r.conn, r.enc = conn, gob.NewEncoder(conn)
		go r.read(conn, gob.NewDecoder(conn))
	}
	c := callPool.Get().(*pendingCall)
	r.seq++
	msg.ID = r.seq
	r.pending[msg.ID] = c
	conn, enc := r.conn, r.enc
	r.mu.Unlock()

	if dl, ok := ctx.Deadline(); ok {
		msg.Deadline = max(int64(time.Until(dl)), 1)
	}
	encode := r.sink.begin(obs.StageEncode, msg.Req)
	err := r.send(conn, enc, &msg) // on failure c fails with the rest
	encode.end(err)

	decode := r.sink.begin(obs.StageDecode, msg.Req)
	var expire <-chan time.Time
	if r.timeout > 0 {
		if c.timer == nil {
			c.timer = time.NewTimer(r.timeout)
		} else {
			c.timer.Reset(r.timeout)
		}
		expire = c.timer.C
	}
	var cause error
	select {
	case <-c.done:
	case <-ctx.Done():
		cause = ctx.Err()
	case <-expire:
		cause = context.DeadlineExceeded
	}
	if expire != nil && !c.timer.Stop() {
		c.timer = nil // it fired; under go.mod's go 1.22 a fire may still be in flight
	}
	if cause != nil { // c stays out of the pool: a reply may be landing in it
		r.mu.Lock()
		delete(r.pending, msg.ID)
		r.mu.Unlock()
		r.send(conn, enc, &wireMsg{ID: msg.ID, Kind: wireCancel})
		err = r.fail("calling", cause)
		decode.end(err)
		return wireReply{}, err
	}
	reply, err := c.reply, c.err
	c.reply, c.err = wireReply{}, nil
	callPool.Put(c)
	decDur := obs.Uptime() - decode.start
	if err == nil && msg.Kind == wireSolve {
		// The SED spans its queue+solve time itself; keep only the
		// wire-and-codec residual so critical paths count it once.
		if served := reply.Resp.QueueSec + reply.Resp.ExecSec; served > 0 && decDur > served {
			decDur -= served
		}
	}
	decode.endAfter(decDur, err)
	switch {
	case err != nil:
		return wireReply{}, err
	case reply.Err != "" && ctx.Err() != nil: // it stopped because the caller did
		return wireReply{}, r.fail("calling", ctx.Err())
	case reply.Err != "":
		return wireReply{}, fmt.Errorf("middleware: %s: %s", r.name, reply.Err)
	}
	return reply, nil
}

// send writes one frame, bounded by the timeout so a peer that stops
// reading cannot wedge every caller. A failed write drops conn.
func (r *Remote) send(conn net.Conn, enc *gob.Encoder, msg *wireMsg) error {
	r.wmu.Lock()
	if r.timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(r.timeout))
	}
	r.out = *msg
	err := enc.Encode(&r.out)
	r.out = wireMsg{}
	r.wmu.Unlock()
	if err != nil {
		err = r.fail("sending to", err)
		r.drop(conn, err)
	}
	return err
}

// read is the connection's reader: it hands each reply to the call
// with its ID, and drops the connection on the first error.
func (r *Remote) read(conn net.Conn, dec *gob.Decoder) {
	var in wireReply
	for {
		in = wireReply{} // gob leaves the fields a frame omits untouched
		if err := dec.Decode(&in); err != nil {
			r.drop(conn, r.fail("reading from", err))
			return
		}
		r.mu.Lock()
		c := r.pending[in.ID]
		delete(r.pending, in.ID)
		r.mu.Unlock()
		if c != nil { // nil: the caller stopped waiting
			c.reply = in
			c.done <- struct{}{}
		}
	}
}

// drop closes conn (nil: the current one) and fails every call pending
// on it, unless conn was already dropped; the next call redials.
func (r *Remote) drop(conn net.Conn, err error) error {
	r.mu.Lock()
	if conn == nil {
		conn = r.conn
	}
	if conn == nil || r.conn != conn {
		r.mu.Unlock()
		return nil
	}
	r.conn, r.enc = nil, nil
	for id, c := range r.pending {
		c.err = err
		c.done <- struct{}{}
		delete(r.pending, id)
	}
	r.mu.Unlock()
	return conn.Close()
}
