package powerd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"greensched/internal/power"
)

// Options configures a reference sidecar. It has no settings: every
// response names the source's ModelName() if it has one, else
// "external".
type Options struct{}

// Server is the reference sidecar: it serves any power.Source over the
// powerd line protocol. One goroutine per connection, any number of
// requests per connection.
type Server struct {
	ln    net.Listener
	src   power.Source
	model string

	requests atomic.Uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve listens on addr (SplitAddr syntax: "unix:/path", "/path",
// "tcp:host:port" or "host:port") and serves src until Close.
func Serve(addr string, src power.Source, _ Options) (*Server, error) {
	if src == nil {
		return nil, fmt.Errorf("powerd: serve needs a power source")
	}
	network, address := SplitAddr(addr)
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("powerd: listen %s %s: %w", network, address, err)
	}
	model := "external"
	if n, ok := src.(interface{ ModelName() string }); ok {
		model = n.ModelName()
	}
	s := &Server{ln: ln, src: src, model: model, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's dialable address in SplitAddr syntax:
// "unix:/path" for unix-domain listeners, "host:port" for TCP.
func (s *Server) Addr() string {
	a := s.ln.Addr()
	if a.Network() == "unix" {
		return "unix:" + a.String()
	}
	return a.String()
}

// Model returns the model name stamped on responses.
func (s *Server) Model() string { return s.model }

// Requests returns how many protocol requests the server has answered.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Close stops the listener, drops every open connection and waits for
// the connection goroutines — after Close returns, a client's next
// exchange fails exactly as a killed sidecar's would.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), maxLine)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		s.requests.Add(1)
		resp := s.answer(sc.Bytes())
		line, err := json.Marshal(resp)
		if err != nil {
			return
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// answer resolves one request line to a response. Every answer carries
// the server's version — malformed or mismatched requests get a
// msg-carrying reply on the current protocol, never silence.
func (s *Server) answer(line []byte) PowerResponse {
	resp := PowerResponse{V: ProtocolVersion, Model: s.model}
	var req PowerRequest
	if err := json.Unmarshal(line, &req); err != nil {
		resp.Msg = fmt.Sprintf("bad request: %v", err)
		return resp
	}
	if req.V != ProtocolVersion {
		resp.Msg = fmt.Sprintf("protocol v%d not supported (server speaks v%d)", req.V, ProtocolVersion)
		return resp
	}
	if req.Node == "" {
		return resp // liveness probe
	}
	w, ok := s.src.NodePowerW(req.Node, req.Metrics, req.Values)
	if !ok {
		resp.Msg = fmt.Sprintf("no reading for node %q", req.Node)
		return resp
	}
	resp.Watts = w
	return resp
}
