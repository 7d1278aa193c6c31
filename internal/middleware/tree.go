package middleware

import (
	"context"
	"fmt"

	"greensched/internal/core"
	"greensched/internal/estvec"
	"greensched/internal/sched"
)

// ElectExcluding runs the election while masking a set of servers (the
// retry path after a SED failure); with none masked it is Elect.
func (m *MasterAgent) ElectExcluding(ctx context.Context, req Request, exclude map[string]bool) (string, estvec.List, error) {
	server, list, err := m.Elect(ctx, req)
	if err != nil {
		return "", list, err
	}
	if !exclude[server] {
		return server, list, nil
	}
	filtered := make(estvec.List, 0, len(list))
	for _, v := range list {
		if !exclude[v.Server] {
			filtered = append(filtered, v)
		}
	}
	if len(filtered) == 0 {
		return "", nil, fmt.Errorf("middleware: all candidates for %q excluded", req.Service)
	}
	chosen, err := m.elect.Load().selector.Select(filtered)
	if err != nil {
		return "", filtered, err
	}
	return chosen.Server, filtered, nil
}

// ProviderFilter builds the Master Agent candidate filter that applies
// §III-C: it sorts the incoming estimation vectors by GreenPerf and
// keeps the Algorithm 1 prefix whose accumulated power covers
// Preference_provider × P_total. pref is sampled per request so the
// provider preference can track electricity cost and utilization live.
func ProviderFilter(pref func() float64) CandidateFilter {
	return func(list estvec.List) estvec.List {
		servers := make([]core.Server, 0, len(list))
		byName := make(map[string]*estvec.Vector, len(list))
		for _, v := range list {
			srv, ok := sched.ServerFromVector(v)
			if !ok {
				continue // unmeasured servers pass through below
			}
			servers = append(servers, srv)
			byName[srv.Name] = v
		}
		selected := core.SelectCandidates(core.Rank(servers, core.ByGreenPerf()), pref())
		out := make(estvec.List, 0, len(list))
		for _, s := range selected {
			out = append(out, byName[s.Name])
		}
		// Unmeasured servers stay candidates: the learning phase
		// must be able to reach them.
		for _, v := range list {
			if _, ok := sched.ServerFromVector(v); !ok {
				out = append(out, v)
			}
		}
		return out
	}
}
