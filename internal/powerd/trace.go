package powerd

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"greensched/internal/power"
)

// TraceModel replays recorded per-node wattage samples — the
// CSV/trace-backed model the tests (and `greensched powerd -trace`)
// serve.
//
// Lookup is deterministic two ways:
//
//   - time-keyed: a request carrying power.MetricTime gets the last
//     sample at or before that instant (none yet → no reading), so the
//     same virtual time always yields the same watts;
//   - sequential: without a time metric each request pops the node's
//     next sample in recorded order, holding the last one once the
//     trace is exhausted — a fixed request sequence replays fixedly.
type TraceModel struct {
	mu     sync.Mutex
	series map[string][]power.Sample
	cursor map[string]int
}

// NewTraceModel returns an empty trace model.
func NewTraceModel() *TraceModel {
	return &TraceModel{series: make(map[string][]power.Sample), cursor: make(map[string]int)}
}

// Add records one sample for node at time t. Samples are kept sorted
// by time regardless of insertion order.
func (m *TraceModel) Add(node string, t float64, w power.Watts) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.series[node]
	s = append(s, power.Sample{T: t, W: w})
	for i := len(s) - 1; i > 0 && s[i].T < s[i-1].T; i-- {
		s[i], s[i-1] = s[i-1], s[i]
	}
	m.series[node] = s
}

// Nodes returns the recorded node names, sorted.
func (m *TraceModel) Nodes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	nodes := make([]string, 0, len(m.series))
	for n := range m.series {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// NodePowerW implements power.Source.
func (m *TraceModel) NodePowerW(node string, metrics []string, values []float64) (power.Watts, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.series[node]
	if len(s) == 0 {
		return 0, false
	}
	if t, ok := power.MetricValue(metrics, values, power.MetricTime); ok {
		// Last sample with T <= t.
		i := sort.Search(len(s), func(i int) bool { return s[i].T > t })
		if i == 0 {
			return 0, false
		}
		return s[i-1].W, true
	}
	i := m.cursor[node]
	if i >= len(s) {
		i = len(s) - 1
	} else {
		m.cursor[node] = i + 1
	}
	return s[i].W, true
}

// ModelName identifies the trace model in powerd responses.
func (m *TraceModel) ModelName() string { return "trace" }

// ParseTraceCSV reads a recorded estimator stream: one "node,t,watts"
// triple per line, '#' comments and blank lines skipped. An optional
// header line starting with "node," is skipped too. Node names must be
// UTF-8, and times and watts finite: anything else could never be
// served over the JSON protocol.
func ParseTraceCSV(r io.Reader) (*TraceModel, error) {
	m := NewTraceModel()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4096), maxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if lineNo == 1 && strings.HasPrefix(line, "node,") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("powerd: trace line %d: want node,t,watts, got %q", lineNo, line)
		}
		node := strings.TrimSpace(parts[0])
		t, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("powerd: trace line %d: bad time: %v", lineNo, err)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("powerd: trace line %d: bad watts: %v", lineNo, err)
		}
		if node == "" {
			return nil, fmt.Errorf("powerd: trace line %d: empty node", lineNo)
		}
		if !utf8.ValidString(node) {
			// JSON would rewrite the name on the wire: no request
			// could ever name this node.
			return nil, fmt.Errorf("powerd: trace line %d: node name is not UTF-8", lineNo)
		}
		if math.IsNaN(t) || math.IsInf(t, 0) || math.IsNaN(w) || math.IsInf(w, 0) {
			// A NaN time breaks the sample order, and a non-finite
			// reading cannot be encoded on the wire.
			return nil, fmt.Errorf("powerd: trace line %d: non-finite sample", lineNo)
		}
		if w < 0 {
			return nil, fmt.Errorf("powerd: trace line %d: negative reading %v W", lineNo, w)
		}
		m.Add(node, t, w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("powerd: reading trace: %w", err)
	}
	if len(m.series) == 0 {
		return nil, fmt.Errorf("powerd: trace holds no samples")
	}
	return m, nil
}
