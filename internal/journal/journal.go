// Package journal is the crash-safety layer under the live serving
// path: an append-only, checksummed, fsync-controlled write-ahead log
// of request lifecycle records. Every admitted request is journaled
// before dispatch, every SED dispatch books a lease (owner + expiry),
// and every outcome settles the entry — so a master that dies
// mid-flight can be restarted over the same file and fold the log back
// into the exact set of incomplete requests with their last-known
// state (middleware.Master.Replay consumes that fold).
//
// The format is deliberately simple: length-prefixed frames, each an
// 8-byte header (uint32 LE payload length, uint32 LE IEEE CRC-32 of
// the payload) followed by one JSON-encoded Record. A torn final frame
// — the normal signature of a crash mid-append — is truncated away
// with a warning on recovery; a checksum mismatch anywhere cuts the
// log at the last good frame the same way. Recovery never panics and
// never invents records: the good prefix is the journal.
//
// The active segment rotates once it exceeds 4 MiB:
// rotation writes a compacted segment holding only the incomplete
// entries (fully-settled lifecycles are dropped — their bytes are the
// ones a long-lived master would otherwise accumulate forever) and
// atomically renames it over the path, so the on-disk journal stays
// proportional to the in-flight set, not the request history.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"sort"
	"sync"
	"time"
)

// State is a lifecycle record's kind. A request folds through
// admitted → (deferred) → leased → completed/failed/rejected; the
// first three are incomplete states, the last three settle the entry.
type State string

// Lifecycle states, in the order a request moves through them.
const (
	StateAdmitted  State = "admitted"
	StateDeferred  State = "deferred"
	StateLeased    State = "leased"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateRejected  State = "rejected"
)

// Settled reports whether s is a terminal state.
func (s State) Settled() bool {
	return s == StateCompleted || s == StateFailed || s == StateRejected
}

// Record is one journal frame. Admission records carry the request
// payload (enough to re-submit it verbatim after a restart); lease
// records carry the owning SED and the lease expiry; settle records
// carry the outcome. T is on the journal's clock (absolute seconds,
// wall by default) while SubmitAt/FinishAt are on the mounting
// master's clock, so replay re-books outcomes at their original times.
type Record struct {
	Seq   uint64  `json:"seq"`
	T     float64 `json:"t"`
	State State   `json:"state"`
	ID    uint64  `json:"id"`

	// Admission payload (StateAdmitted).
	Service    string  `json:"service,omitempty"`
	Ops        float64 `json:"ops,omitempty"`
	Pref       float64 `json:"pref,omitempty"`
	Class      string  `json:"class,omitempty"`
	Deadline   float64 `json:"deadline,omitempty"`
	Value      float64 `json:"value,omitempty"`
	Deferrable bool    `json:"deferrable,omitempty"`
	Payload    []byte  `json:"payload,omitempty"`
	SubmitAt   float64 `json:"submit,omitempty"`

	// Lease fields (StateLeased).
	SED    string  `json:"sed,omitempty"`
	Expiry float64 `json:"expiry,omitempty"`

	// Outcome fields (StateCompleted / StateFailed / StateRejected).
	FinishAt float64 `json:"finish,omitempty"`
	ExecSec  float64 `json:"exec,omitempty"`
	EnergyJ  float64 `json:"energy,omitempty"`
	Err      string  `json:"err,omitempty"`
}

// Entry is the folded last-known state of one journaled request: its
// admission record plus whatever the latest lifecycle record said.
type Entry struct {
	// Admit is the admission record (request payload).
	Admit Record
	// State is the last-known lifecycle state.
	State State
	// SED and Expiry are the current lease when State is StateLeased.
	SED    string
	Expiry float64
	// Final is the terminal record when State is settled.
	Final Record
}

// Settled reports whether the entry reached a terminal state.
func (e Entry) Settled() bool { return e.State.Settled() }

// Stats is the journal's observability snapshot.
type Stats struct {
	// Appended counts records written since Open (excluding records
	// re-emitted by compaction).
	Appended uint64
	// BytesTotal counts bytes written since Open (including
	// compaction).
	BytesTotal uint64
	// SegmentBytes is the active segment's current size.
	SegmentBytes int64
	// Rotations counts segment rotations (each one compacted away the
	// settled entries).
	Rotations uint64
	// Pending is the current incomplete-entry count.
	Pending int
	// SyncErrors counts fsync failures (the record is in the OS buffer
	// but its durability is not confirmed).
	SyncErrors uint64
	// Truncated is true when Open cut a torn or corrupt tail.
	Truncated bool
}

// Options configures Open.
type Options struct {
	// NoSync disables the per-append fsync: throughput over
	// durability (a crash may lose the OS-buffered suffix, which
	// recovery then treats as a torn tail).
	NoSync bool

	// segmentBytes is the rotation threshold; once the active segment
	// exceeds it, settled entries are compacted away. 0 means 4 MiB;
	// negative disables rotation. Tests lower it.
	segmentBytes int64
	// warn receives recovery and rotation warnings; nil means
	// log.Printf. Tests capture them.
	warn func(format string, args ...any)
}

const (
	headerBytes     = 8
	defaultSegBytes = 4 << 20
	maxRecordBytes  = 1 << 20
	compactSuffix   = ".compact"
)

// DefaultLeaseTermSec is the lease term middleware uses when none is
// configured.
const DefaultLeaseTermSec = 30.0

// ErrClosed is returned by mutations on a closed or abandoned journal.
var ErrClosed = fmt.Errorf("journal: closed")

// ErrSync wraps a failed fsync: the record reached the OS buffer (the
// fold applied it) but its durability is unconfirmed. Callers decide
// whether that is fatal; the middleware counts it and keeps serving.
var ErrSync = fmt.Errorf("journal: fsync")

// ErrTooLarge is returned when a record's encoding exceeds
// maxRecordBytes. The frame is never written: recovery treats any
// frame length over the limit as a corrupt tail, so emitting one would
// silently truncate the record AND everything journaled after it at
// the next restart.
var ErrTooLarge = fmt.Errorf("journal: record too large")

// segmentFile is the active segment's runtime surface — *os.File in
// production; tests substitute a failing implementation to drive the
// fsync-error path.
type segmentFile interface {
	io.Writer
	io.Closer
	Sync() error
}

// Journal is an open write-ahead log. All methods are safe for
// concurrent use.
type Journal struct {
	mu       sync.Mutex
	f        segmentFile
	path     string
	noSync   bool
	segLimit int64
	warn     func(string, ...any)

	seq    uint64
	segLen int64
	// retryAt is nonzero while rotation is failing: the segment length
	// past which the next attempt runs, one full limit beyond the
	// length the last attempt failed at.
	retryAt int64
	pending map[uint64]*Entry
	settled []Entry // folded from disk at Open; consumed by Replay
	maxID   uint64

	appended   uint64
	bytesTotal uint64
	rotations  uint64
	syncErrs   uint64
	truncated  bool
}

// Open opens (creating if needed) the journal at path, folds any
// existing log into memory, and truncates a torn or corrupt tail with
// a warning. The returned journal appends at the end of the good
// prefix; Pending and Settled expose the fold for replay.
func Open(path string, o Options) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	rec, err := Recover(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: recover %s: %w", path, err)
	}
	warn := o.warn
	if warn == nil {
		warn = log.Printf
	}
	if rec.Truncated {
		warn("journal: %s: torn or corrupt tail, truncating to %d bytes (%d good records)", path, rec.GoodBytes, rec.Records)
		if err := f.Truncate(rec.GoodBytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncate %s: %w", path, err)
		}
	}
	if _, err := f.Seek(rec.GoodBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	segLimit := o.segmentBytes
	if segLimit == 0 {
		segLimit = defaultSegBytes
	}
	j := &Journal{
		f: f, path: path, noSync: o.NoSync, segLimit: segLimit, warn: warn,
		seq: rec.MaxSeq, segLen: rec.GoodBytes,
		pending:   make(map[uint64]*Entry),
		maxID:     rec.MaxID,
		truncated: rec.Truncated,
	}
	for _, e := range rec.Entries {
		if e.Settled() {
			j.settled = append(j.settled, e)
		} else {
			cp := e
			j.pending[e.Admit.ID] = &cp
		}
	}
	return j, nil
}

// MaxID is the highest request ID the log has seen — a restarting
// master seeds its ID sequence past it so new traffic never collides
// with journaled lifecycles.
func (j *Journal) MaxID() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxID
}

// Now reads the journal clock: Unix wall time in seconds, which is what
// lets lease expiries written by one master incarnation be compared by
// the next.
func (j *Journal) Now() float64 { return float64(time.Now().UnixNano()) / float64(time.Second) }

// Admit journals a request's admission. It is the dedup point for
// replay: an ID that is already pending (the entry a replay is
// re-submitting) is not re-admitted, so a lifecycle appears in the log
// exactly once no matter how many times it is re-driven.
func (j *Journal) Admit(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrClosed
	}
	if _, ok := j.pending[rec.ID]; ok {
		return nil
	}
	rec.State = StateAdmitted
	err := j.append(&rec)
	if err != nil && !errors.Is(err, ErrSync) {
		return err
	}
	cp := rec
	j.pending[rec.ID] = &Entry{Admit: cp, State: StateAdmitted}
	if rec.ID > j.maxID {
		j.maxID = rec.ID
	}
	if err != nil {
		return err
	}
	return j.maybeRotate()
}

// Lease books a dispatch: sed owns the request until the returned
// expiry (journal clock). Re-leasing a pending request (failover to
// another SED, or redo after replay) simply supersedes the previous
// lease. An ID that is not pending is ignored.
func (j *Journal) Lease(id uint64, sed string, termSec float64) (float64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, ErrClosed
	}
	e, ok := j.pending[id]
	if !ok {
		return 0, nil
	}
	if termSec <= 0 {
		termSec = DefaultLeaseTermSec
	}
	expiry := j.Now() + termSec
	rec := Record{State: StateLeased, ID: id, SED: sed, Expiry: expiry}
	err := j.append(&rec)
	if err != nil && !errors.Is(err, ErrSync) {
		return 0, err
	}
	e.State = StateLeased
	e.SED = sed
	e.Expiry = expiry
	if err != nil {
		return expiry, err
	}
	return expiry, j.maybeRotate()
}

// Defer marks a pending request as carbon-parked, so deferral survives
// a master restart: replay re-submits it through the stack, where it
// re-parks if the grid is still dirty. An ID that is not pending is
// ignored.
func (j *Journal) Defer(id uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrClosed
	}
	e, ok := j.pending[id]
	if !ok || e.State == StateDeferred {
		return nil
	}
	rec := Record{State: StateDeferred, ID: id}
	err := j.append(&rec)
	if err != nil && !errors.Is(err, ErrSync) {
		return err
	}
	e.State = StateDeferred
	if err != nil {
		return err
	}
	return j.maybeRotate()
}

// Settle records a terminal outcome and removes the entry from the
// pending set. outcome must be a settled State. An ID that is not
// pending (already settled, or never admitted) is ignored — that is
// what makes a duplicate settle attempt a no-op on the books.
func (j *Journal) Settle(id uint64, outcome State, finishAt, execSec, energyJ float64, errMsg string) error {
	if !outcome.Settled() {
		return fmt.Errorf("journal: Settle with non-terminal state %q", outcome)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrClosed
	}
	if _, ok := j.pending[id]; !ok {
		return nil
	}
	rec := Record{State: outcome, ID: id, FinishAt: finishAt, ExecSec: execSec, EnergyJ: energyJ, Err: errMsg}
	err := j.append(&rec)
	if err != nil && !errors.Is(err, ErrSync) {
		return err
	}
	delete(j.pending, id)
	if err != nil {
		return err
	}
	return j.maybeRotate()
}

// Pending snapshots the incomplete entries, sorted by request ID —
// the set Master.Replay re-submits.
func (j *Journal) Pending() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Entry, 0, len(j.pending))
	for _, e := range j.pending {
		out = append(out, *e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Admit.ID < out[b].Admit.ID })
	return out
}

// Settled returns the entries that were already terminal when the
// journal was opened, sorted by request ID — the set Master.Replay
// re-books (exactly once) into a fresh interceptor stack. Entries
// settled after Open are not accumulated here; they are already on the
// running master's books.
func (j *Journal) Settled() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Entry, len(j.settled))
	copy(out, j.settled)
	sort.Slice(out, func(a, b int) bool { return out[a].Admit.ID < out[b].Admit.ID })
	return out
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Appended:     j.appended,
		BytesTotal:   j.bytesTotal,
		SegmentBytes: j.segLen,
		Rotations:    j.rotations,
		Pending:      len(j.pending),
		SyncErrors:   j.syncErrs,
		Truncated:    j.truncated,
	}
}

// Close syncs and closes the journal. Pending entries stay pending on
// disk — that is the point: a clean shutdown with unfinished work
// replays exactly like a crash.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	f := j.f
	j.f = nil
	syncErr := f.Sync()
	if err := f.Close(); err != nil {
		return err
	}
	return syncErr
}

// Abandon drops the file handle WITHOUT syncing and marks the journal
// closed — the in-process equivalent of kill -9 for crash drills:
// everything appended so far stays in the log, every append after it
// is lost, exactly as if the process had died. RunDurableStudy uses it
// to kill a master mid-run.
func (j *Journal) Abandon() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	j.f.Close()
	j.f = nil
}

// append frames and writes one record (caller holds mu). The sequence
// number is assigned here; fsync follows unless NoSync.
func (j *Journal) append(rec *Record) error {
	j.seq++
	rec.Seq = j.seq
	if rec.T == 0 {
		rec.T = j.Now()
	}
	n, err := writeFrame(j.f, rec)
	if err != nil {
		if n > 0 {
			j.rewindTorn(int64(n), err)
		}
		return fmt.Errorf("journal: append: %w", err)
	}
	j.segLen += int64(n)
	j.bytesTotal += uint64(n)
	j.appended++
	if !j.noSync {
		if err := j.f.Sync(); err != nil {
			// The bytes are written (recovery will see them unless the
			// machine dies before the OS flushes); durability is just
			// unconfirmed. Surface the error, keep the journal usable.
			j.syncErrs++
			return fmt.Errorf("%w: %w", ErrSync, err)
		}
	}
	return nil
}

// rewindTorn repairs a partial frame write (caller holds mu): wrote
// bytes of a frame landed after the last good boundary at segLen, and
// recovery stops at the first bad frame, so any append allowed to land
// after them would be silently lost at the next restart. The segment is
// truncated back to segLen and the write offset restored; if the
// segment cannot be rewound, the journal is failed (every later
// mutation returns ErrClosed) — loudly non-durable beats quietly
// journaling records recovery will drop.
func (j *Journal) rewindTorn(wrote int64, cause error) {
	type rewinder interface {
		Truncate(size int64) error
		io.Seeker
	}
	if rw, ok := j.f.(rewinder); ok {
		if err := rw.Truncate(j.segLen); err == nil {
			if _, err := rw.Seek(j.segLen, io.SeekStart); err == nil {
				j.warn("journal: %s: rewound torn frame (%d bytes) after write error: %v", j.path, wrote, cause)
				return
			}
		}
	}
	j.warn("journal: %s: torn frame (%d bytes) could not be rewound after write error (%v); failing journal", j.path, wrote, cause)
	j.f.Close()
	j.f = nil
}

// maybeRotate compacts the active segment once it exceeds the limit:
// a fresh segment holding only the incomplete entries replaces the
// file atomically (write-temp, fsync, rename). Failure to rotate is a
// warning, never data loss — appends continue on the old segment.
func (j *Journal) maybeRotate() error {
	if j.segLimit < 0 || j.segLen <= j.segLimit || j.segLen <= j.retryAt {
		return nil
	}
	tmp := j.path + compactSuffix
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return j.rotateFailed(err)
	}
	var size int64
	seq, bytesTotal := j.seq, j.bytesTotal
	fail := func(err error) error {
		nf.Close()
		os.Remove(tmp)
		// The compacted frames were never kept.
		j.seq, j.bytesTotal = seq, bytesTotal
		return j.rotateFailed(err)
	}
	// Re-emit each incomplete lifecycle in its canonical order:
	// admission, then the park or lease that is still in force.
	ids := make([]uint64, 0, len(j.pending))
	for id := range j.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		e := j.pending[id]
		recs := []Record{e.Admit}
		switch e.State {
		case StateDeferred:
			recs = append(recs, Record{State: StateDeferred, ID: id, T: j.Now()})
		case StateLeased:
			recs = append(recs, Record{State: StateLeased, ID: id, SED: e.SED, Expiry: e.Expiry, T: j.Now()})
		}
		for _, rec := range recs {
			j.seq++
			rec.Seq = j.seq
			n, err := writeFrame(nf, &rec)
			size += int64(n)
			j.bytesTotal += uint64(n)
			if err != nil {
				return fail(err)
			}
		}
	}
	if err := nf.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return fail(err)
	}
	j.f.Close()
	j.f = nf
	j.segLen = size
	j.rotations++
	j.retryAt = 0
	return nil
}

// rotateFailed backs rotation off until the segment has grown by
// another full limit — a compaction that keeps failing is retried once
// per limit's worth of appends, not on every one — and warns once per
// failure streak. It returns nil: appends go on on the old segment.
func (j *Journal) rotateFailed(err error) error {
	if j.retryAt == 0 {
		j.warn("journal: rotate %s: %v (retrying every %d bytes appended until it succeeds)", j.path, err, j.segLimit)
	}
	j.retryAt = j.segLen + j.segLimit
	return nil
}

// writeFrame encodes one record as header+payload and returns the
// bytes written (possibly partial on error). A record whose encoding
// exceeds maxRecordBytes is refused BEFORE any byte hits the file —
// recovery rejects oversized frames as a corrupt tail, so writing one
// would discard it and every later record at the next restart.
func writeFrame(w io.Writer, rec *Record) (int, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("%w: %d-byte record (limit %d)", ErrTooLarge, len(payload), maxRecordBytes)
	}
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	n, err := w.Write(hdr[:])
	if err != nil {
		return n, err
	}
	m, err := w.Write(payload)
	return n + m, err
}
