package powerd

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"greensched/internal/power"
)

// checkReply asserts the protocol's invariants on one server answer:
// it carries the server's version and model, a msg-carrying reply has
// no watts, and the reply survives the JSON line encoding unchanged.
func checkReply(t *testing.T, s *Server, resp PowerResponse) {
	t.Helper()
	if resp.V != ProtocolVersion || resp.Model != s.model {
		t.Fatalf("reply %+v: want v%d from model %q", resp, ProtocolVersion, s.model)
	}
	if resp.Msg != "" && resp.Watts != 0 {
		t.Fatalf("reply %+v puts watts on an error", resp)
	}
	line, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("reply %+v does not encode: %v", resp, err)
	}
	var back PowerResponse
	if err := json.Unmarshal(line, &back); err != nil || back != resp {
		t.Fatalf("reply %+v reads back as %+v (%v)", resp, back, err)
	}
}

// FuzzParseTraceCSV: arbitrary text as a recorded estimator stream.
// ParseTraceCSV never panics; whatever it accepts holds finite,
// non-negative samples in time order for at least one node, and a sidecar serving it answers
// every node, time-keyed and sequentially, with a well-formed reply.
func FuzzParseTraceCSV(f *testing.F) {
	for _, seed := range []string{
		"node,t,watts\n# recorded estimator stream\nlean, 0, 80\nlean, 1, 85\nhungry,0,320\n",
		"n,10,150\nn,0,100\nn,20,200\n",
		"n,0,NaN\n",
		"n,Inf,1\n",
		"n,-Inf,1\n",
		",0,1\n",
		"n,0\n",
		"n,0,1,2\n",
		"\n\n# only comments\n",
		"node,t,watts\n",
		"a,1e308,-1e308\nb,-0,0x1p-2\n",
		"n,0,80\nn,1,-5\n",
		"\x9c,0,0\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ParseTraceCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		nodes := m.Nodes()
		if len(nodes) == 0 {
			t.Fatal("accepted a trace with no nodes")
		}
		s := &Server{src: m, model: m.ModelName()}
		for _, node := range nodes {
			samples := m.series[node]
			for i, x := range samples {
				if math.IsNaN(x.T) || math.IsInf(x.T, 0) || math.IsNaN(x.W) || math.IsInf(x.W, 0) || x.W < 0 {
					t.Fatalf("node %q sample %d is not finite and non-negative: %+v", node, i, x)
				}
				if i > 0 && x.T < samples[i-1].T {
					t.Fatalf("node %q sample %d at t=%v before t=%v", node, i, x.T, samples[i-1].T)
				}
			}
			req, _ := json.Marshal(PowerRequest{V: ProtocolVersion, Node: node,
				Metrics: []string{power.MetricTime}, Values: []float64{samples[0].T}})
			resp := s.answer(req)
			checkReply(t, s, resp)
			if resp.Msg != "" {
				t.Fatalf("node %q has no reading at its first sample: %+v", node, resp)
			}
			req, _ = json.Marshal(PowerRequest{V: ProtocolVersion, Node: node})
			checkReply(t, s, s.answer(req))
		}
	})
}

// FuzzServerAnswer: arbitrary bytes as one request line. The sidecar's
// decoder never panics and always answers on its own version; a line
// that decodes as a current-version request for a node gets exactly
// the source's reading, or a msg and no watts when the source has
// none; anything else gets a msg or, for the liveness probe, neither.
func FuzzServerAnswer(f *testing.F) {
	for _, seed := range []string{
		`{"v":1,"node":"lean","metrics":["util"],"values":[0.5]}`,
		`{"v":1,"node":"lean","metrics":["util","time"],"values":[2]}`,
		`{"v":1,"node":"lean","metrics":["util"],"values":[1e308]}`,
		`{"v":1,"node":"ghost"}`,
		`{"v":1}`,
		`{"v":2,"node":"lean"}`,
		`{"v":1,"node":"lean","values":[-1]}`,
		`{"v":"1","node":"lean"}`,
		`{"v":1,"node":"lean","metrics":["util"],"values":[NaN]}`,
		`null`,
		`[]`,
		`{`,
		"",
	} {
		f.Add([]byte(seed))
	}
	src := power.CurveSource{Nodes: map[string]power.Model{
		"lean":   power.LinearModel{IdleW: 80, PeakW: 180},
		"hungry": power.LinearModel{IdleW: 200, PeakW: 400},
	}}
	s := &Server{src: src, model: src.ModelName()}
	f.Fuzz(func(t *testing.T, line []byte) {
		resp := s.answer(line)
		checkReply(t, s, resp)
		var req PowerRequest
		if json.Unmarshal(line, &req) != nil || req.V != ProtocolVersion {
			if resp.Msg == "" {
				t.Fatalf("undecodable or off-version line %q answered without a msg: %+v", line, resp)
			}
			return
		}
		if req.Node == "" {
			if resp.Msg != "" || resp.Watts != 0 {
				t.Fatalf("liveness probe %q answered %+v", line, resp)
			}
			return
		}
		w, ok := src.NodePowerW(req.Node, req.Metrics, req.Values)
		if answered := resp.Msg == ""; answered != ok || answered && resp.Watts != w {
			t.Fatalf("request %q answered %+v; the source reads %v, %v", line, resp, w, ok)
		}
	})
}

// FuzzClientReply: arbitrary bytes as the sidecar's reply line. The
// client's decoder never panics; a reading it accepts is finite and not
// negative, and comes from a current-version reply without a msg.
func FuzzClientReply(f *testing.F) {
	for _, seed := range []string{
		`{"v":1,"watts":80,"model":"curve"}`,
		`{"v":1,"watts":0}`,
		`{"v":1}`,
		`{"v":1,"watts":-120}`,
		`{"v":1,"watts":-0}`,
		`{"v":1,"watts":1e999}`,
		`{"v":1,"watts":NaN}`,
		`{"v":1,"msg":"powerd: unknown node"}`,
		`{"v":1,"watts":5,"msg":"boom"}`,
		`{"v":2,"watts":80}`,
		`{"v":"1","watts":80}`,
		`{"v":1,"watts":"80"}`,
		`null`,
		`{`,
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		w, err := decodeReply(line)
		var resp PowerResponse
		decoded := json.Unmarshal(line, &resp) == nil
		if decoded && resp.V != ProtocolVersion && err == nil {
			t.Fatalf("reply %q on protocol v%d yields %v W", line, resp.V, w)
		}
		if err != nil {
			return
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("reply %q yields reading %v W", line, w)
		}
		if !decoded || resp.Msg != "" || w != resp.Watts {
			t.Fatalf("reply %q (%+v, decoded %v) yields %v W", line, resp, decoded, w)
		}
	})
}
