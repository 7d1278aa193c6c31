package sim

import (
	"fmt"
	"io"
	"strconv"

	"greensched/internal/obs"
	"greensched/internal/workload"
)

// LifecycleObserver is the optional Module surface behind lifecycle
// tracing: a module that also implements it is told, synchronously
// inside the event loop, each time a task enters a stage, so a
// deterministic run reports a deterministic sequence. A completion
// arrives through Module.OnFinish.
type LifecycleObserver interface {
	// OnStage reports that task t entered stage at now, on server where
	// one is known: obs.StageSubmit on first arrival (after every
	// OnArrival hook), obs.StagePark when no server accepts it yet,
	// obs.StageElect when server is elected, obs.StageSolve when it
	// starts there. A non-empty err instead ends the current stage in
	// failure: obs.StageAdmission for a refusal, which ends the task,
	// and obs.StageSolve for a crash, after which it is resubmitted.
	OnStage(now float64, t workload.Task, stage, server, err string)
}

// TraceModule writes the run's request spans as JSONL, in the obs.Span
// schema the live middleware writes: one trace per task, a submit root
// with admission, park, elect, queue and solve children (see the
// obs.Stage* constants), on virtual time. `greensched spans` reads it
// as it reads a live stream. IDs count up from 1 within the run, so a
// deterministic run writes a byte-identical file; only the traces of
// tasks in flight are held.
type TraceModule struct {
	BaseModule

	// W receives the JSONL stream.
	W io.Writer

	w      *obs.SpanWriter
	lastID uint64
	open   map[int]*taskTrace // by task ID
}

// taskTrace is a task's trace in flight: its root and the stage under
// way (cur.Name "" between stages).
type taskTrace struct {
	root, cur obs.Span
}

// Init implements Module.
func (m *TraceModule) Init(*Runner) error {
	if m.W == nil {
		return fmt.Errorf("sim: trace module needs a writer")
	}
	m.w = obs.NewSpanWriter(m.W)
	m.lastID = 0
	m.open = make(map[int]*taskTrace)
	return nil
}

// OnStage implements LifecycleObserver: the stage under way ends at
// now, and the next one begins.
func (m *TraceModule) OnStage(now float64, t workload.Task, stage, server, err string) {
	if stage == obs.StageSubmit {
		m.lastID++
		tr := &taskTrace{root: obs.Span{TraceID: m.lastID, SpanID: m.lastID, Name: obs.StageSubmit, Src: "sim", Start: now,
			Attrs: map[string]string{"id": strconv.Itoa(t.ID)}}}
		if t.Class != "" {
			tr.root.Attrs["class"] = t.Class
		}
		m.open[t.ID] = tr
		m.begin(tr, obs.StageAdmission, now, "")
		return
	}
	tr := m.open[t.ID]
	m.close(&tr.cur, now, err)
	switch {
	case err != "" && stage == obs.StageAdmission: // refused: the trace ends
		m.close(&tr.root, now, err)
		delete(m.open, t.ID)
	case err != "": // crashed: the task is elected again
	case stage == obs.StageElect:
		m.begin(tr, obs.StageElect, now, server)
		m.close(&tr.cur, now, "")
		m.begin(tr, obs.StageQueue, now, server)
	default:
		m.begin(tr, stage, now, server)
	}
}

// OnFinish implements Module: the solve and the trace end, and the
// root takes the task's energy share.
func (m *TraceModule) OnFinish(rec TaskRecord) {
	tr := m.open[rec.ID]
	m.close(&tr.cur, rec.Finish, "")
	tr.root.Attrs["energy_j"] = strconv.FormatFloat(rec.EnergyShareJ, 'g', -1, 64)
	m.close(&tr.root, rec.Finish, "")
	delete(m.open, rec.ID)
}

// begin opens stage name of tr at now.
func (m *TraceModule) begin(tr *taskTrace, name string, now float64, server string) {
	m.lastID++
	tr.cur = obs.Span{TraceID: tr.root.TraceID, SpanID: m.lastID, Parent: tr.root.SpanID, Name: name, Src: "sim", Start: now}
	if server != "" {
		tr.cur.Attrs = map[string]string{"server": server}
	}
}

// close ends sp at now and writes it; an unopened sp is left alone.
func (m *TraceModule) close(sp *obs.Span, now float64, err string) {
	if sp.Name == "" {
		return
	}
	sp.DurSec, sp.Err = now-sp.Start, err
	m.w.Emit(*sp)
	*sp = obs.Span{}
}
