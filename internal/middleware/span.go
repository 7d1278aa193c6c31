package middleware

import "greensched/internal/obs"

// spanSink is the master's span fan-out: every stage span goes to the
// optional JSONL writer AND — when the interceptor stack carries a
// registry — into the greensched_stage_seconds histogram, so /metrics
// exposes the same per-stage latency decomposition the span stream
// records. A nil sink (tracing off, no registry) costs the request
// path nothing.
type spanSink struct {
	w    *obs.SpanWriter   // may be nil: histograms only
	hist *obs.HistogramVec // may be nil: spans only
	src  string            // the master's name

	// The canonical stages' histogram children, pre-resolved at
	// construction so the per-request observe path is a constant-string
	// switch instead of a label-key join under the family mutex.
	submitH, admissionH, electH, estimateH obs.Histogram
	dispatchH, queueH, solveH, replyH      obs.Histogram
}

// stageBuckets span the decomposed stages' dynamic range: in-process
// elections sit in the tens of microseconds, queue waits behind a
// dirty-grid deferral in the tens of seconds.
var stageBuckets = obs.ExpBuckets(1e-5, 4, 12)

// newSpanSink wires the sink; nil when both outputs are absent.
func newSpanSink(src string, w *obs.SpanWriter, reg *obs.Registry) *spanSink {
	if w == nil && reg == nil {
		return nil
	}
	s := &spanSink{w: w, src: src}
	if reg != nil {
		s.hist = reg.HistogramVec("greensched_stage_seconds",
			"Request latency decomposed by lifecycle stage.", stageBuckets, "src", "stage")
		s.submitH = s.hist.With(src, obs.StageSubmit)
		s.admissionH = s.hist.With(src, obs.StageAdmission)
		s.electH = s.hist.With(src, obs.StageElect)
		s.estimateH = s.hist.With(src, obs.StageEstimate)
		s.dispatchH = s.hist.With(src, obs.StageDispatch)
		s.queueH = s.hist.With(src, obs.StageQueue)
		s.solveH = s.hist.With(src, obs.StageSolve)
		s.replyH = s.hist.With(src, obs.StageReply)
	}
	return s
}

// spans reports whether full span records are wanted — a JSONL writer
// is attached. Histogram-only sinks (registry, no writer) skip span
// construction entirely: no trace/span IDs, no Attrs maps, just stage
// durations into the histogram.
func (s *spanSink) spans() bool { return s != nil && s.w != nil }

// emit records one span: histogram always, writer when present.
func (s *spanSink) emit(sp obs.Span) {
	if s == nil {
		return
	}
	if sp.Src == "" {
		sp.Src = s.src
	}
	s.observe(sp.Name, sp.DurSec)
	s.w.Emit(sp)
}

// observe feeds the stage histogram alone — for stages whose span is
// emitted elsewhere (a SED writing its own queue/solve spans) but whose
// latency still belongs in the master's /metrics.
func (s *spanSink) observe(stage string, dur float64) {
	if s == nil || s.hist == nil {
		return
	}
	switch stage {
	case obs.StageSubmit:
		s.submitH.Observe(dur)
	case obs.StageAdmission:
		s.admissionH.Observe(dur)
	case obs.StageElect:
		s.electH.Observe(dur)
	case obs.StageEstimate:
		s.estimateH.Observe(dur)
	case obs.StageDispatch:
		s.dispatchH.Observe(dur)
	case obs.StageQueue:
		s.queueH.Observe(dur)
	case obs.StageSolve:
		s.solveH.Observe(dur)
	case obs.StageReply:
		s.replyH.Observe(dur)
	default:
		s.hist.With(s.src, stage).Observe(dur)
	}
}
