package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span stage names. A live request's hop tree is rooted at a submit
// span covering the whole lifecycle, with one child per stage:
//
//	submit
//	├─ admission            master: OnSubmit hooks (absent without a stack)
//	├─ elect                master: estimation fan-out + selection; one
//	│  └─ estimate          estimate span per agent LEVEL, nested down
//	│     └─ estimate…      the DIET tree
//	│        └─ dial/encode/decode   transport frames of remote children
//	└─ dispatch             master: the elected SED's Solve round trip
//	   ├─ queue             SED: waiting for a free execution slot
//	   ├─ solve             SED: the service's execution
//	   └─ reply             master: residual transport overhead
//
// The queue and solve spans are emitted by the SED itself when it has a
// SpanWriter (stitched by the trace context the Request carries across
// the gob wire); otherwise the master reconstructs them from the
// timings the Response carries back, so the tree is complete even when
// the SED-side stream is unavailable (or the transport is one-way).
// A carbon-deferred request's parked time is its admission span.
//
// A simulated task's tree (sim.TraceModule) is flat, on virtual time:
//
//	submit
//	├─ admission            zero-length; the refusal reason on a reject
//	├─ park                 no server would accept the task yet
//	├─ elect                zero-length
//	├─ queue                waiting on the elected SED
//	└─ solve                execution; a crash ends it with an error
//
// On both substrates the root carries the request's "id", "class" and,
// on a completion, its attributed "energy_j" as attributes, elect the
// "server", and a rejected or failed request the reason as Err.
const (
	StageSubmit    = "submit"
	StageAdmission = "admission"
	StagePark      = "park"
	StageElect     = "elect"
	StageEstimate  = "estimate"
	StageDial      = "dial"
	StageEncode    = "encode"
	StageDecode    = "decode"
	StageDispatch  = "dispatch"
	StageQueue     = "queue"
	StageSolve     = "solve"
	StageReply     = "reply"
)

// CanonicalStages is the stage set every successful request's hop tree
// must contain — what `greensched spans -check` (and the CI smoke run)
// verify per trace.
var CanonicalStages = []string{
	StageSubmit, StageElect, StageDispatch, StageQueue, StageSolve, StageReply,
}

// Span is one timed stage of a distributed request. Spans stitch into
// a tree by ID, not by clock: TraceID groups the request's spans across
// processes, Parent links a stage under its enclosing one, and Start is
// seconds on the EMITTING component's clock (the master's injectable
// clock, a SED's process uptime) — durations are comparable everywhere,
// absolute starts only within one Src.
type Span struct {
	TraceID uint64 `json:"trace"`
	SpanID  uint64 `json:"span"`
	// Parent is the enclosing span's SpanID (0 for the root).
	Parent uint64 `json:"parent,omitempty"`
	// Name is the stage (one of the Stage* constants).
	Name string `json:"name"`
	// Src names the emitting component (a master's or SED's name).
	Src string `json:"src,omitempty"`

	Start  float64 `json:"start"`
	DurSec float64 `json:"dur_sec"`

	// Attrs carries stage-specific annotations (elected server,
	// retry attempt, candidate counts).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Err marks a terminated span: the stage ended in failure.
	Err string `json:"err,omitempty"`
}

// spanIDs is the process-wide ID source: trace and span IDs only need
// to be unique, and the master propagates its trace ID to every other
// process touching the request, so a counter suffices.
var spanIDs atomic.Uint64

// NewSpanID returns a process-unique span (or trace) ID.
func NewSpanID() uint64 { return spanIDs.Add(1) }

// epoch anchors Uptime.
var epoch = time.Now()

// Uptime returns seconds since process start — the clock components
// without an injectable one (SEDs, remotes, agents) stamp span starts
// with. Monotonic, so durations derived from it are exact.
func Uptime() float64 { return time.Since(epoch).Seconds() }

// SpanWriter writes spans as JSON Lines, one object per span, safe for
// concurrent emitters. A nil *SpanWriter is a valid no-op, so call
// sites thread an optional writer without guarding.
type SpanWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewSpanWriter returns a writer emitting JSONL to w.
func NewSpanWriter(w io.Writer) *SpanWriter {
	return &SpanWriter{enc: json.NewEncoder(w)}
}

// Emit writes one span. Write errors are swallowed: telemetry must
// never fail the serving path it observes.
func (w *SpanWriter) Emit(sp Span) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.enc.Encode(sp)
}

// ReadSpans decodes a JSONL span stream back into spans — the
// analysis-side inverse of a SpanWriter. Streams from several
// components (a master's file, each SED's file) concatenate freely:
// stitching is by ID.
func ReadSpans(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var out []Span
	for {
		var sp Span
		if err := dec.Decode(&sp); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, sp)
	}
}
