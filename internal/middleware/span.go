package middleware

import "greensched/internal/obs"

// spanSink is where an emitter's stage data goes: the optional JSONL
// writer AND — when the master's interceptor stack carries a registry —
// the greensched_stage_seconds histogram, so /metrics exposes the same
// per-stage latency decomposition the span stream records. The master
// and its root agent share one sink; SEDs and Remote handles carry a
// writer-only one. A nil sink (tracing off, no registry) emits nothing.
type spanSink struct {
	w   *obs.SpanWriter // may be nil: histograms only
	src string          // the emitter's name, every span's default Src
	// hist holds the canonical stages' histogram children, resolved at
	// construction and only read afterwards, so the per-request observe
	// path never joins label keys under the family mutex. Nil without a
	// registry.
	hist map[string]obs.Histogram
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
		vec := reg.HistogramVec("greensched_stage_seconds",
			"Request latency decomposed by lifecycle stage.", stageBuckets, "src", "stage")
		s.hist = make(map[string]obs.Histogram)
		for _, name := range []string{obs.StageSubmit, obs.StageAdmission, obs.StageElect, obs.StageEstimate,
			obs.StageDispatch, obs.StageQueue, obs.StageSolve, obs.StageReply} {
			s.hist[name] = vec.With(src, name)
		}
	}
	return s
}

// spans reports whether full span records are wanted — a JSONL writer
// is attached.
func (s *spanSink) spans() bool { return s != nil && s.w != nil }

// observe feeds the stage histogram alone — for stages whose span is
// emitted elsewhere (a SED writing its own queue/solve spans) but whose
// latency still belongs in the master's /metrics.
func (s *spanSink) observe(name string, dur float64) {
	if h, ok := s.hist[name]; ok {
		h.Observe(dur)
	}
}

// stage times one lifecycle stage of one request. Closing it observes
// its duration into the sink's histogram and, when the sink has a
// writer and the request carries a trace, emits its span; only then is
// a span ID minted, so histogram-only mode builds no span, Attrs map or
// error string. A stage of a nil sink only keeps time.
type stage struct {
	sink              *spanSink
	name, src         string // src "" is the sink's own name
	start             float64
	trace, id, parent uint64 // zero unless traced
}

// begin starts timing stage name of req, parented under req.ParentSpan.
func (s *spanSink) begin(name string, req Request) stage {
	st := stage{sink: s, name: name, start: obs.Uptime()}
	if s.spans() && req.TraceID != 0 {
		st.trace, st.id, st.parent = req.TraceID, obs.NewSpanID(), req.ParentSpan
	}
	return st
}

// traced reports whether the stage will emit a span.
func (st stage) traced() bool { return st.id != 0 }

// under returns req re-parented under the stage's span, so the spans of
// whatever handles req next nest inside this stage.
func (st stage) under(req Request) Request {
	if st.id != 0 {
		req.ParentSpan = st.id
	}
	return req
}

// child is a stage nested in this one that ran on the far side of the
// wire and is reconstructed from timings that rode back: it starts at
// start on this clock, and src names where it ran.
func (st stage) child(name, src string, start float64) stage {
	c := stage{sink: st.sink, name: name, src: src, start: start}
	if st.id != 0 {
		c.trace, c.id, c.parent = st.trace, obs.NewSpanID(), st.id
	}
	return c
}

// end closes the stage now and returns its duration. attrs are span
// attribute key/value pairs; a pair with an empty value is left out.
func (st stage) end(err error, attrs ...string) float64 {
	dur := obs.Uptime() - st.start
	st.endAfter(dur, err, attrs...)
	return dur
}

// endAfter closes the stage with a duration measured by the caller.
func (st stage) endAfter(dur float64, err error, attrs ...string) {
	if st.sink == nil {
		return
	}
	st.sink.observe(st.name, dur)
	if st.id == 0 {
		return
	}
	sp := obs.Span{
		TraceID: st.trace, SpanID: st.id, Parent: st.parent,
		Name: st.name, Src: st.src, Start: st.start, DurSec: dur,
	}
	if sp.Src == "" {
		sp.Src = st.sink.src
	}
	for i := 0; i+1 < len(attrs); i += 2 {
		if attrs[i+1] == "" {
			continue
		}
		if sp.Attrs == nil {
			sp.Attrs = make(map[string]string, len(attrs)/2)
		}
		sp.Attrs[attrs[i]] = attrs[i+1]
	}
	if err != nil {
		sp.Err = err.Error()
	}
	st.sink.w.Emit(sp)
}
