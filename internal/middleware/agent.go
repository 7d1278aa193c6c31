package middleware

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"greensched/internal/estvec"
	"greensched/internal/obs"
	"greensched/internal/sched"
)

// Child is anything an agent can forward a request to: a SED or a
// lower agent. Estimate returns the child's sorted candidate vectors
// (nil when it cannot serve the request).
type Child interface {
	Name() string
	Estimate(ctx context.Context, req Request) (estvec.List, error)
}

// Agent is a DIET agent (Local Agent, or Master Agent at the root):
// it forwards requests to its children in parallel, gathers their
// candidate lists, and sorts the merged list with its plug-in
// scheduler (§III-A steps 2–4).
//
// The agent's configuration lives behind an atomic copy-on-write
// snapshot: Estimate loads one pointer and runs lock-free, so
// concurrent requests never contend on a mutex just to read children
// that almost never change. Mutators (Attach, SetPolicy, ...) build a
// fresh snapshot under mu and publish it atomically.
type Agent struct {
	name string

	mu    sync.Mutex // serializes mutators; readers go through state
	state atomic.Pointer[agentState]
}

// agentState is one immutable configuration snapshot. Fields are never
// mutated after publication; mutators copy.
type agentState struct {
	children     []Child
	policy       sched.Policy
	topK         int
	childTimeout time.Duration
	sink         *spanSink
	// localFanout is true when every child is an in-process SED:
	// estimations answer in microseconds, so the fan-out calls them
	// sequentially instead of paying goroutine churn per request.
	// Recomputed by Attach.
	localFanout bool
}

// mutate publishes a new snapshot derived from the current one.
func (a *Agent) mutate(f func(st *agentState)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	next := *a.state.Load()
	f(&next)
	a.state.Store(&next)
}

// NewAgent builds an agent with a plug-in policy. topK bounds how many
// candidates it forwards upward (0 = all); DIET trims lists for
// scalability in deep hierarchies.
func NewAgent(name string, policy sched.Policy, topK int) (*Agent, error) {
	if name == "" {
		return nil, fmt.Errorf("middleware: agent needs a name")
	}
	if policy == nil {
		return nil, fmt.Errorf("middleware: agent %s needs a policy", name)
	}
	if topK < 0 {
		return nil, fmt.Errorf("middleware: agent %s: negative topK", name)
	}
	a := &Agent{name: name}
	a.state.Store(&agentState{policy: policy, topK: topK, localFanout: true})
	return a, nil
}

// Name implements Child.
func (a *Agent) Name() string { return a.name }

// Attach adds children (SEDs or sub-agents).
func (a *Agent) Attach(children ...Child) {
	a.mutate(func(st *agentState) {
		// Fresh backing array: the previous snapshot's slice may still
		// be scanned by an in-flight Estimate.
		next := make([]Child, 0, len(st.children)+len(children))
		next = append(next, st.children...)
		st.children = append(next, children...)
		st.localFanout = true
		for _, c := range st.children {
			if _, ok := c.(*SED); !ok {
				st.localFanout = false
				break
			}
		}
	})
}

// SetChildTimeout bounds each child's estimation round trip; a slow or
// hung subtree is then treated like a failed one instead of stalling
// the whole scheduling process. Zero (the default) disables the bound.
func (a *Agent) SetChildTimeout(d time.Duration) {
	a.mutate(func(st *agentState) { st.childTimeout = d })
}

// SetPolicy swaps the plug-in scheduler at runtime (the paper's
// framework lets administrators change ranking behaviour centrally).
func (a *Agent) SetPolicy(p sched.Policy) {
	if p == nil {
		return
	}
	a.mutate(func(st *agentState) { st.policy = p })
}

// Estimate implements Child: parallel fan-out, merge, plug-in sort,
// optional top-K trim. The configuration snapshot is one atomic load —
// concurrent requests share it without locking or copying — and the
// fan-out spawns the minimum goroutines the semantics allow: none for a
// single child without a timeout, one per child but the last otherwise,
// and a second per child (the worker the caller abandons) only when a
// timeout must cut a hung subtree loose.
func (a *Agent) Estimate(ctx context.Context, req Request) (estvec.List, error) {
	st := a.state.Load()
	children := st.children
	policy := st.policy
	topK := st.topK
	childTimeout := st.childTimeout
	if len(children) == 0 {
		return nil, nil
	}

	// One "estimate" stage per fan-out at this level. The copies
	// forwarded to children parent under its span, so sub-agent
	// estimates and transport spans nest per hierarchy level.
	est := st.sink.begin(obs.StageEstimate, req)
	req = est.under(req)

	var merged estvec.List
	var lastErr error
	healthy := 0
	switch {
	case childTimeout <= 0 && (len(children) == 1 || st.localFanout):
		// A single child, or all in-process SEDs: their estimations
		// answer in microseconds, so sequential calls beat spawning
		// goroutines per request. Merge order matches children order,
		// exactly like the indexed parallel paths.
		for _, c := range children {
			list, err := c.Estimate(ctx, req)
			if err != nil {
				lastErr = err
				continue
			}
			healthy++
			if merged == nil {
				merged = list
			} else {
				merged = append(merged, list...)
			}
		}
	default:
		// One goroutine per child but the last, which the caller asks
		// itself instead of sleeping.
		lists := make([]estvec.List, len(children))
		errs := make([]error, len(children))
		ask := func(i int) { lists[i], errs[i] = children[i].Estimate(ctx, req) }
		if childTimeout > 0 {
			ask = func(i int) { lists[i], errs[i] = estimateWithin(ctx, childTimeout, children[i], req) }
		}
		last := len(children) - 1
		var wg sync.WaitGroup
		wg.Add(last)
		for i := range children[:last] {
			go func() {
				defer wg.Done()
				ask(i)
			}()
		}
		ask(last)
		wg.Wait()
		merged, lastErr, healthy = mergeLists(lists, errs)
	}
	var err error
	if healthy == 0 && lastErr != nil {
		merged, err = nil, fmt.Errorf("middleware: agent %s: all children failed: %w", a.name, lastErr)
	} else {
		merged.SortStable(policy.Less)
		if topK > 0 && len(merged) > topK {
			merged = merged[:topK]
		}
	}
	if est.traced() { // attribute strings only for a span
		est.end(err, "children", strconv.Itoa(len(children)), "candidates", strconv.Itoa(len(merged)))
	} else {
		est.end(err)
	}
	return merged, err
}

// estimateWithin bounds one child's round trip. The child may ignore
// cancellation, so it answers a worker whose result channel is buffered
// (it never leaks) and the caller abandons it at the deadline.
func estimateWithin(ctx context.Context, d time.Duration, c Child, req Request) (estvec.List, error) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	type estimation struct {
		list estvec.List
		err  error
	}
	ch := make(chan estimation, 1)
	go func() {
		list, err := c.Estimate(ctx, req)
		ch <- estimation{list, err}
	}()
	select {
	case r := <-ch:
		return r.list, r.err
	case <-ctx.Done():
		return nil, fmt.Errorf("middleware: child %s timed out: %w", c.Name(), ctx.Err())
	}
}

// mergeLists folds the indexed fan-out results in children order. A
// dead child must not fail the whole hierarchy; DIET treats unreachable
// subtrees as empty. The last error is kept for the all-failed case.
func mergeLists(lists []estvec.List, errs []error) (merged estvec.List, lastErr error, healthy int) {
	for i := range lists {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		healthy++
		merged = append(merged, lists[i]...)
	}
	return merged, lastErr, healthy
}

// MasterAgent is the hierarchy root: it runs the full scheduling
// process and elects the SED for a request. Its selector sits behind
// an atomic pointer like the Agent snapshot, so concurrent elections
// never serialize on configuration reads.
type MasterAgent struct {
	*Agent
	mu       sync.Mutex // serializes SetPolicy; readers load selector
	selector atomic.Pointer[sched.Selector]
}

// NewMasterAgent builds the root agent.
func NewMasterAgent(name string, policy sched.Policy) (*MasterAgent, error) {
	a, err := NewAgent(name, policy, 0)
	if err != nil {
		return nil, err
	}
	m := &MasterAgent{Agent: a}
	m.selector.Store(sched.NewSelector(policy))
	return m, nil
}

// SetPolicy swaps both the sort policy and the election policy.
func (m *MasterAgent) SetPolicy(p sched.Policy) {
	if p == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Agent.SetPolicy(p)
	m.selector.Store(sched.NewSelector(p))
}

// Elect runs steps 2–4 of the scheduling process and returns the
// chosen SED's name together with the sorted candidate list. Servers
// in exclude are masked from the list before the one election (Replay
// redoes a journaled lease on a SED other than the one the dead master
// dispatched to); nil masks none.
func (m *MasterAgent) Elect(ctx context.Context, req Request, exclude map[string]bool) (string, estvec.List, error) {
	list, err := m.Estimate(ctx, req)
	if err != nil {
		return "", nil, err
	}
	if len(list) == 0 {
		return "", nil, fmt.Errorf("middleware: no server is able to solve %q", req.Service)
	}
	if len(exclude) > 0 {
		// A fresh list: the merged one may be a child's own backing array.
		kept := make(estvec.List, 0, len(list))
		for _, v := range list {
			if !exclude[v.Server] {
				kept = append(kept, v)
			}
		}
		if len(kept) == 0 {
			return "", nil, fmt.Errorf("middleware: all candidates for %q excluded", req.Service)
		}
		list = kept
	}
	chosen, err := m.selector.Load().Select(list)
	if err != nil {
		return "", list, err
	}
	return chosen.Server, list, nil
}

// Solver executes requests on a named SED — the client-side handle
// used for §III-A step 5 ("the client contacts the elected SED").
type Solver interface {
	Solve(ctx context.Context, req Request) (Response, error)
}

// Directory resolves SED names to Solvers. The in-process directory is
// a simple map; the TCP transport resolves to remote connections.
type Directory interface {
	Lookup(name string) (Solver, bool)
}

// MapDirectory is the in-process Directory.
type MapDirectory struct {
	mu   sync.RWMutex
	seds map[string]Solver
}

// NewMapDirectory returns an empty directory.
func NewMapDirectory() *MapDirectory {
	return &MapDirectory{seds: make(map[string]Solver)}
}

// Add registers a solver under a name.
func (d *MapDirectory) Add(name string, s Solver) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seds[name] = s
}

// Lookup implements Directory.
func (d *MapDirectory) Lookup(name string) (Solver, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s, ok := d.seds[name]
	return s, ok
}

// Names returns the registered SED names, sorted — the enumeration
// surface Master.SEDStats aggregates through.
func (d *MapDirectory) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.seds))
	for name := range d.seds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
