package sim

import (
	"fmt"
	"io"

	"greensched/internal/obs"
)

// LifecycleObserver is the optional Module surface behind lifecycle
// tracing: a module that also implements it receives every task's
// structured lifecycle transitions — the exact obs.Event schema the
// live middleware's ObsInterceptor emits, on virtual time instead of
// the master clock:
//
//	submit → admit|reject → elect → solve → complete|fail
//
// with defer emitted when an unplaceable task (every candidacy window
// shut, all nodes off) is finally placed after waiting. Events fire
// synchronously inside the event loop, so a deterministic run yields a
// byte-identical stream. The Event's Src field is left empty for the
// observer to stamp.
type LifecycleObserver interface {
	OnLifecycle(ev obs.Event)
}

// TraceModule writes the run's lifecycle events as JSONL — the
// simulator spelling of attaching an obs.Tracer to the live stack, and
// the reason a sim study and a TCP deployment produce directly
// comparable traces.
type TraceModule struct {
	BaseModule

	// W receives the JSONL stream.
	W io.Writer

	tr *obs.Tracer
}

// Init implements Module.
func (m *TraceModule) Init(*Runner) error {
	if m.W == nil {
		return fmt.Errorf("sim: trace module needs a writer")
	}
	m.tr = obs.NewTracer(m.W)
	return nil
}

// OnLifecycle implements LifecycleObserver.
func (m *TraceModule) OnLifecycle(ev obs.Event) {
	ev.Src = "sim"
	m.tr.Emit(ev)
}
