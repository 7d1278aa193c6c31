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
// a connection dropped mid-exchange, a malformed frame — as opposed to
// an application error the remote returned. Agents treat it like any
// failed child (the subtree is masked, the election proceeds) and
// clients test with errors.Is to tell a lost SED from a failed
// request.
var ErrTransport = errors.New("transport failure")

// The wire protocol is a minimal gob request/response exchange: one
// message per connection-turn, multiplexed over a persistent
// connection per peer. It exists so the middleware can actually be
// deployed across machines like DIET; the experiments use the
// in-process topology for determinism.

type wireKind uint8

const (
	wireEstimate wireKind = iota + 1
	wireSolve
	// wireStats fetches the remote SED's observability snapshot — the
	// frame behind Remote.Stats, so Master.SEDStats covers daemons on
	// other machines, not just in-process SEDs.
	wireStats
)

type wireMsg struct {
	Kind wireKind
	Req  Request
}

type wireReply struct {
	Err     string
	Vectors []*estvec.Vector
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
	wg     sync.WaitGroup
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

// Close stops accepting, closes every active connection, and waits for
// in-flight handlers to drain. Handlers block reading the next request
// on persistent connections, so closing the conns is what unblocks them.
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
		go func() {
			defer e.wg.Done()
			e.handle(conn)
		}()
	}
}

func (e *Endpoint) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var msg wireMsg
		if err := dec.Decode(&msg); err != nil {
			return // peer hung up or garbage; drop the connection
		}
		var reply wireReply
		switch msg.Kind {
		case wireEstimate:
			list, err := e.child.Estimate(context.Background(), msg.Req)
			if err != nil {
				reply.Err = err.Error()
			} else {
				reply.Vectors = list
			}
		case wireSolve:
			if e.solver == nil {
				reply.Err = fmt.Sprintf("middleware: endpoint %s cannot solve", e.child.Name())
			} else {
				resp, err := e.solver.Solve(context.Background(), msg.Req)
				if err != nil {
					reply.Err = err.Error()
				} else {
					reply.Resp = resp
				}
			}
		case wireStats:
			var src statser
			if s, ok := e.solver.(statser); ok {
				src = s
			} else if s, ok := e.child.(statser); ok {
				src = s
			}
			if src == nil {
				reply.Err = fmt.Sprintf("middleware: endpoint %s exposes no stats", e.child.Name())
			} else {
				reply.Stats = src.Stats()
			}
		default:
			reply.Err = fmt.Sprintf("middleware: unknown wire kind %d", msg.Kind)
		}
		if err := enc.Encode(&reply); err != nil {
			return
		}
	}
}

// Remote is a client-side handle to a TCP endpoint; it implements both
// Child (Estimate) and Solver (Solve), so remote SEDs and remote
// agents compose into hierarchies exactly like local ones.
type Remote struct {
	name string
	addr string

	mu      sync.Mutex
	conn    net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
	timeout time.Duration
	spans   *obs.SpanWriter
}

// Dial returns a lazy-connecting remote handle. name must match the
// remote child's name (used in error messages and directories).
func Dial(name, addr string) *Remote {
	return &Remote{name: name, addr: addr, timeout: 10 * time.Second}
}

// SetTimeout bounds each round trip (0 disables).
func (r *Remote) SetTimeout(d time.Duration) { r.timeout = d }

// SetSpans makes the handle emit dial/encode/decode spans for traced
// requests, parented under the caller's span (the master's dispatch
// span for Solve, the agent level's estimate span for Estimate) — the
// wire's own cost becomes visible in the trace. Nil turns it off.
func (r *Remote) SetSpans(w *obs.SpanWriter) { r.spans = w }

// emitSpan records one transport-stage span for a traced request.
func (r *Remote) emitSpan(req Request, stage string, start, dur float64, err error) {
	if r.spans == nil || req.TraceID == 0 {
		return
	}
	sp := obs.Span{
		TraceID: req.TraceID, SpanID: obs.NewSpanID(), Parent: req.ParentSpan,
		Name: stage, Src: r.name, Start: start, DurSec: dur,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	r.spans.Emit(sp)
}

// Stats fetches the remote SED's observability snapshot over the wire.
// The fallible signature is deliberate: it keeps Remote distinct from
// the in-process statser surface, and Master.SEDStats skips daemons
// whose round trip fails.
func (r *Remote) Stats() (SEDStats, error) {
	reply, err := r.call(context.Background(), wireMsg{Kind: wireStats})
	if err != nil {
		return SEDStats{}, err
	}
	return reply.Stats, nil
}

// Name implements Child.
func (r *Remote) Name() string { return r.name }

// Estimate implements Child over the wire.
func (r *Remote) Estimate(ctx context.Context, req Request) (estvec.List, error) {
	reply, err := r.call(ctx, wireMsg{Kind: wireEstimate, Req: req})
	if err != nil {
		return nil, err
	}
	return estvec.List(reply.Vectors), nil
}

// Solve implements Solver over the wire.
func (r *Remote) Solve(ctx context.Context, req Request) (Response, error) {
	reply, err := r.call(ctx, wireMsg{Kind: wireSolve, Req: req})
	if err != nil {
		return Response{}, err
	}
	return reply.Resp, nil
}

// Close tears down the cached connection.
func (r *Remote) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn != nil {
		err := r.conn.Close()
		r.conn = nil
		return err
	}
	return nil
}

func (r *Remote) call(ctx context.Context, msg wireMsg) (wireReply, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var reply wireReply
	if r.conn == nil {
		dialStart := obs.Uptime()
		d := net.Dialer{Timeout: r.timeout}
		conn, err := d.DialContext(ctx, "tcp", r.addr)
		if err != nil {
			err = fmt.Errorf("middleware: dialing %s (%s): %w: %w", r.name, r.addr, ErrTransport, err)
			r.emitSpan(msg.Req, obs.StageDial, dialStart, obs.Uptime()-dialStart, err)
			return reply, err
		}
		r.emitSpan(msg.Req, obs.StageDial, dialStart, obs.Uptime()-dialStart, nil)
		r.conn = conn
		r.enc = gob.NewEncoder(conn)
		r.dec = gob.NewDecoder(conn)
	}
	if r.timeout > 0 {
		r.conn.SetDeadline(time.Now().Add(r.timeout))
	}
	if dl, ok := ctx.Deadline(); ok {
		r.conn.SetDeadline(dl)
	}
	encStart := obs.Uptime()
	if err := r.enc.Encode(&msg); err != nil {
		r.reset()
		err = fmt.Errorf("middleware: sending to %s: %w: %w", r.name, ErrTransport, err)
		r.emitSpan(msg.Req, obs.StageEncode, encStart, obs.Uptime()-encStart, err)
		return reply, err
	}
	r.emitSpan(msg.Req, obs.StageEncode, encStart, obs.Uptime()-encStart, nil)
	decStart := obs.Uptime()
	if err := r.dec.Decode(&reply); err != nil {
		r.reset()
		err = fmt.Errorf("middleware: reading from %s: %w: %w", r.name, ErrTransport, err)
		r.emitSpan(msg.Req, obs.StageDecode, decStart, obs.Uptime()-decStart, err)
		return reply, err
	}
	decDur := obs.Uptime() - decStart
	if msg.Kind == wireSolve {
		// The reply read blocks for the SED's whole queue+solve time,
		// which is already spanned on the far side of the wire — keep
		// only the wire-and-codec residual here so critical paths don't
		// count the execution twice.
		if served := reply.Resp.QueueSec + reply.Resp.ExecSec; served > 0 && decDur > served {
			decDur -= served
		}
	}
	r.emitSpan(msg.Req, obs.StageDecode, decStart, decDur, nil)
	if reply.Err != "" {
		return reply, fmt.Errorf("middleware: %s: %s", r.name, reply.Err)
	}
	return reply, nil
}

func (r *Remote) reset() {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
}
