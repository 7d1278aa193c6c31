package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// admit returns a minimal admission record for ID.
func admit(id uint64) Record {
	return Record{ID: id, Service: "compute", Ops: 1e6, Class: "batch", SubmitAt: float64(id)}
}

// TestLifecycleFold drives one full lifecycle per outcome and checks
// the reopened fold: settled entries on the settled side, incomplete
// entries pending with their last-known state.
func TestLifecycleFold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 1 completes, 2 fails, 3 is rejected, 4 stays leased, 5 stays
	// deferred, 6 stays admitted.
	for id := uint64(1); id <= 6; id++ {
		if err := j.Admit(admit(id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.Lease(1, "lean", 30); err != nil {
		t.Fatal(err)
	}
	if err := j.Settle(1, StateCompleted, 10, 0.5, 42, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Lease(2, "hungry", 30); err != nil {
		t.Fatal(err)
	}
	if err := j.Settle(2, StateFailed, 11, 0, 0, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := j.Settle(3, StateRejected, 12, 0, 0, "rejected"); err != nil {
		t.Fatal(err)
	}
	exp, err := j.Lease(4, "lean", 7)
	if err != nil {
		t.Fatal(err)
	}
	if exp <= 0 {
		t.Fatalf("lease expiry %v", exp)
	}
	if err := j.Defer(5); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.MaxID(); got != 6 {
		t.Errorf("MaxID = %d, want 6", got)
	}
	settled := j2.Settled()
	if len(settled) != 3 {
		t.Fatalf("settled %d entries, want 3", len(settled))
	}
	if settled[0].State != StateCompleted || settled[0].Final.EnergyJ != 42 {
		t.Errorf("entry 1 = %+v", settled[0])
	}
	if settled[1].State != StateFailed || settled[1].Final.Err != "boom" {
		t.Errorf("entry 2 = %+v", settled[1])
	}
	if settled[2].State != StateRejected {
		t.Errorf("entry 3 = %+v", settled[2])
	}
	pending := j2.Pending()
	if len(pending) != 3 {
		t.Fatalf("pending %d entries, want 3", len(pending))
	}
	if pending[0].State != StateLeased || pending[0].SED != "lean" || pending[0].Expiry != exp {
		t.Errorf("entry 4 = %+v", pending[0])
	}
	if pending[1].State != StateDeferred {
		t.Errorf("entry 5 = %+v", pending[1])
	}
	if pending[2].State != StateAdmitted {
		t.Errorf("entry 6 = %+v", pending[2])
	}
	if pending[2].Admit.Service != "compute" || pending[2].Admit.Class != "batch" {
		t.Errorf("admission payload lost: %+v", pending[2].Admit)
	}
}

// TestDedup checks the journal's idempotence guarantees: re-admitting
// a pending ID, settling twice, and mutating an unknown ID are all
// silent no-ops.
func TestDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Admit(admit(1)); err != nil {
		t.Fatal(err)
	}
	before := j.Stats().Appended
	if err := j.Admit(admit(1)); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().Appended; got != before {
		t.Errorf("re-admit wrote a record (%d → %d)", before, got)
	}
	if err := j.Settle(1, StateCompleted, 1, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	before = j.Stats().Appended
	if err := j.Settle(1, StateCompleted, 2, 2, 2, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Lease(1, "x", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Defer(99); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().Appended; got != before {
		t.Errorf("settled/unknown mutations wrote records (%d → %d)", before, got)
	}
	if err := j.Settle(2, StateLeased, 0, 0, 0, ""); err == nil {
		t.Error("Settle accepted a non-terminal state")
	}
}

// TestTornTail cuts the final frame mid-payload and checks recovery
// truncates to the good prefix with a warning — never panics, never
// loses the good records.
func TestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		if err := j.Admit(admit(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last 5 bytes: the final record is torn.
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	var warned strings.Builder
	j2, err := Open(path, Options{warn: func(f string, a ...any) {
		warned.WriteString(strings.TrimSpace(f))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(j2.Pending()); got != 2 {
		t.Errorf("pending %d, want 2 (good prefix)", got)
	}
	if !j2.Stats().Truncated {
		t.Error("Truncated flag not set")
	}
	if warned.Len() == 0 {
		t.Error("no warning for torn tail")
	}
	// The journal stays appendable at the truncation point.
	if err := j2.Admit(admit(9)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := len(j3.Pending()); got != 3 {
		t.Errorf("pending %d after re-append, want 3", got)
	}
}

// TestCorruptChecksum damages the second of four records: recovery
// keeps the records before it and reports the cut. The byte to flip is
// found by walking the length prefixes, so the damage lands where the
// case says regardless of how long each record encodes.
func TestCorruptChecksum(t *testing.T) {
	cases := []struct {
		name string
		// offset picks the byte to flip, given where frame 2 starts and
		// how long its payload is.
		offset func(frame2, size int) int
		// reasons lists the acceptable diagnoses (any non-empty reason
		// when nil); minRecords..maxRecords bounds the recovered prefix.
		reasons                []string
		minRecords, maxRecords int
	}{
		{
			name:       "payload byte",
			offset:     func(frame2, size int) int { return frame2 + headerBytes + size/2 },
			reasons:    []string{"checksum", "undecodable"},
			minRecords: 1, maxRecords: 1,
		},
		{
			// A damaged length makes the reader mis-frame the rest of
			// the log; which diagnosis it reaches depends on the bytes,
			// but it must still cut at a good boundary and say why.
			name:       "length prefix byte",
			offset:     func(frame2, _ int) int { return frame2 },
			minRecords: 1, maxRecords: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.wal")
			j, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for id := uint64(1); id <= 4; id++ {
				if err := j.Admit(admit(id)); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frame2 := headerBytes + int(binary.LittleEndian.Uint32(raw[0:4]))
			size2 := int(binary.LittleEndian.Uint32(raw[frame2 : frame2+4]))
			raw[tc.offset(frame2, size2)] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			rec, err := Recover(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Truncated {
				t.Fatal("corrupt record not reported")
			}
			described := rec.Reason != "" && tc.reasons == nil
			for _, r := range tc.reasons {
				described = described || strings.Contains(rec.Reason, r)
			}
			if !described {
				t.Errorf("reason %q does not describe the damage (want one of %q)", rec.Reason, tc.reasons)
			}
			if rec.Records < tc.minRecords || rec.Records > tc.maxRecords {
				t.Errorf("recovered %d of 4 records, want %d..%d", rec.Records, tc.minRecords, tc.maxRecords)
			}
			// Open applies the same cut and keeps going.
			j2, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if got := len(j2.Pending()); got != rec.Records {
				t.Errorf("pending %d, want %d (one admission per good record)", got, rec.Records)
			}
		})
	}
}

// syncFail wraps the real segment file, failing every Sync.
type syncFail struct {
	segmentFile
}

func (s syncFail) Sync() error { return errors.New("injected fsync failure") }

// TestFsyncError injects a failing fsync: the append surfaces the
// error and counts it, but the journal neither panics nor wedges —
// the record is written and later appends still work.
func TestFsyncError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	real := j.f
	j.f = syncFail{real}
	if err := j.Admit(admit(1)); err == nil {
		t.Fatal("fsync failure not surfaced")
	}
	if got := j.Stats().SyncErrors; got != 1 {
		t.Errorf("SyncErrors = %d, want 1", got)
	}
	// The record reached the OS buffer; the fold sees it.
	if got := len(j.Pending()); got != 1 {
		t.Errorf("pending %d, want 1", got)
	}
	j.f = real
	if err := j.Admit(admit(2)); err != nil {
		t.Fatalf("journal wedged after fsync error: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(j2.Pending()); got != 2 {
		t.Errorf("pending %d after reopen, want 2", got)
	}
}

// TestOversizeRecordRejected: a record whose encoding exceeds the
// frame limit is refused BEFORE any byte hits the file — recovery
// treats oversized frames as a corrupt tail, so writing one would
// silently discard it and every later record at the next restart.
func TestOversizeRecordRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := admit(1)
	big.Payload = bytes.Repeat([]byte("x"), maxRecordBytes+1)
	if err := j.Admit(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize admit returned %v, want ErrTooLarge", err)
	}
	if got := len(j.Pending()); got != 0 {
		t.Errorf("oversize record entered the pending set (%d entries)", got)
	}
	if got := j.Stats().Appended; got != 0 {
		t.Errorf("oversize record counted as appended (%d)", got)
	}
	// The journal stays clean and appendable.
	if err := j.Admit(admit(2)); err != nil {
		t.Fatalf("journal wedged after oversize refusal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Stats().Truncated {
		t.Error("oversize refusal left a corrupt tail on disk")
	}
	if got := len(j2.Pending()); got != 1 {
		t.Errorf("pending %d after reopen, want 1", got)
	}
}

// shortWrite writes a 2-byte prefix of the next frame then fails — a
// transient ENOSPC mid-append. Embedding *os.File keeps Truncate/Seek
// visible, so the journal can rewind the torn frame.
type shortWrite struct {
	*os.File
	failNext bool
}

func (s *shortWrite) Write(b []byte) (int, error) {
	if s.failNext {
		s.failNext = false
		n, _ := s.File.Write(b[:2])
		return n, errors.New("injected short write")
	}
	return s.File.Write(b)
}

// TestPartialWriteRewound: a failed append that left a torn frame on
// disk is truncated back to the last good boundary, so later appends
// never land behind bytes recovery would reject.
func TestPartialWriteRewound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	var warned strings.Builder
	j, err := Open(path, Options{warn: func(f string, a ...any) {
		warned.WriteString(f + "\n")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(admit(1)); err != nil {
		t.Fatal(err)
	}
	j.f = &shortWrite{File: j.f.(*os.File), failNext: true}
	if err := j.Admit(admit(2)); err == nil {
		t.Fatal("partial write not surfaced")
	}
	if !strings.Contains(warned.String(), "rewound") {
		t.Errorf("no rewind warning, got %q", warned.String())
	}
	if got := len(j.Pending()); got != 1 {
		t.Errorf("pending %d after failed append, want 1", got)
	}
	// The next append lands on the restored good boundary...
	if err := j.Admit(admit(3)); err != nil {
		t.Fatalf("journal wedged after rewind: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and recovery sees a clean log: ids 1 and 3, no truncation.
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Stats().Truncated {
		t.Error("rewound journal recovered as truncated")
	}
	pending := j2.Pending()
	if len(pending) != 2 || pending[0].Admit.ID != 1 || pending[1].Admit.ID != 3 {
		t.Errorf("pending after reopen = %+v, want ids 1 and 3", pending)
	}
}

// opaqueShortWrite fails like shortWrite but hides the underlying
// file's Truncate/Seek, so the torn frame cannot be rewound.
type opaqueShortWrite struct {
	segmentFile
	failNext bool
}

func (s *opaqueShortWrite) Write(b []byte) (int, error) {
	if s.failNext {
		s.failNext = false
		n, _ := s.segmentFile.Write(b[:2])
		return n, errors.New("injected short write")
	}
	return s.segmentFile.Write(b)
}

// TestPartialWriteUnrewindableFailsJournal: when a torn frame cannot
// be cut away, the journal fails loudly (ErrClosed on every later
// mutation) instead of appending records recovery would silently drop.
func TestPartialWriteUnrewindableFailsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	var warned strings.Builder
	j, err := Open(path, Options{warn: func(f string, a ...any) {
		warned.WriteString(f + "\n")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(admit(1)); err != nil {
		t.Fatal(err)
	}
	j.f = &opaqueShortWrite{segmentFile: j.f, failNext: true}
	if err := j.Admit(admit(2)); err == nil {
		t.Fatal("partial write not surfaced")
	}
	if !strings.Contains(warned.String(), "failing journal") {
		t.Errorf("no failure warning, got %q", warned.String())
	}
	if err := j.Admit(admit(3)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after unrewindable tear returned %v, want ErrClosed", err)
	}
	// Recovery truncates the torn tail and keeps the good prefix.
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Stats().Truncated {
		t.Error("torn tail not reported on reopen")
	}
	if got := len(j2.Pending()); got != 1 {
		t.Errorf("pending %d after reopen, want the good prefix only", got)
	}
}

// TestRecoverLeaseAfterSettle: a lease record appearing after a settle
// (possible only in a damaged or hand-edited log) must not revert the
// journaled terminal outcome — Replay would re-execute settled work.
func TestRecoverLeaseAfterSettle(t *testing.T) {
	var buf bytes.Buffer
	for _, rec := range []Record{
		{Seq: 1, T: 1, State: StateAdmitted, ID: 1, Service: "compute"},
		{Seq: 2, T: 2, State: StateCompleted, ID: 1, FinishAt: 2, EnergyJ: 5},
		{Seq: 3, T: 3, State: StateLeased, ID: 1, SED: "lean", Expiry: 99},
	} {
		rec := rec
		if _, err := writeFrame(&buf, &rec); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := Recover(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(rec.Entries))
	}
	if e := rec.Entries[0]; e.State != StateCompleted || e.Final.EnergyJ != 5 {
		t.Errorf("entry = %+v, want the settled outcome preserved", e)
	}
	if inc := rec.Incomplete(); len(inc) != 0 {
		t.Errorf("incomplete = %+v, want none (stale lease must not resurrect settled work)", inc)
	}
}

// TestRotationFailureWarnsByDefault: with no warning sink set, a
// failed rotation still reaches the standard logger, so a journal
// that cannot compact is never silent.
func TestRotationFailureWarnsByDefault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	// A directory where the compacted segment would go fails the rotation.
	if err := os.Mkdir(path+compactSuffix, 0o755); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)

	j, err := Open(path, Options{NoSync: true, segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for id := uint64(1); id < 20; id++ {
		if err := j.Admit(admit(id)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Stats().Rotations != 0 {
		t.Fatal("rotation succeeded over a directory")
	}
	if !strings.Contains(logged.String(), "journal: rotate "+path) {
		t.Errorf("rotation failure not logged; log holds %q", logged.String())
	}
}

// TestRotationFailureBacksOff: while compaction keeps failing, the
// journal warns once, retries only after the segment has grown by
// another full limit past the length the last attempt failed at, and a
// failed attempt leaves the sequence and the byte count as if it never
// ran. Once the obstacle goes, the first retry that falls due rotates.
func TestRotationFailureBacksOff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := os.Mkdir(path+compactSuffix, 0o755); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	const limit = 256
	j, err := Open(path, Options{NoSync: true, segmentBytes: limit, warn: func(f string, a ...any) {
		warnings = append(warnings, fmt.Sprintf(f, a...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// retryAt follows the back-off rule: an append that leaves the
	// segment past both the limit and retryAt attempts a rotation.
	retryAt, attempts, frame := int64(0), 0, int64(0)
	for id := uint64(1); id < 20; id++ {
		before := j.Stats().SegmentBytes
		if err := j.Admit(admit(id)); err != nil {
			t.Fatal(err)
		}
		seg := j.Stats().SegmentBytes
		if frame = seg - before; seg > limit && seg > retryAt {
			retryAt, attempts = seg+limit, attempts+1
		}
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "journal: rotate "+path) {
		t.Fatalf("%d failed rotations warned %d times, want once: %q", attempts, len(warnings), warnings)
	}
	st := j.Stats()
	if st.Rotations != 0 {
		t.Fatal("rotation succeeded over a directory")
	}
	if st.BytesTotal != uint64(st.SegmentBytes) {
		t.Errorf("bytes total %d, want the %d bytes appended: failed compactions kept nothing", st.BytesTotal, st.SegmentBytes)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 19 || rec.Truncated {
		t.Fatalf("recovered %d entries (truncated %v), want all 19", len(rec.Entries), rec.Truncated)
	}
	for i, e := range rec.Entries {
		if e.Admit.ID != uint64(i+1) || e.Admit.Seq != uint64(i+1) {
			t.Fatalf("entry %d = id %d seq %d, want every admission in order on an unbroken sequence", i, e.Admit.ID, e.Admit.Seq)
		}
	}

	// Clear the obstacle: the next attempt waits for the back-off.
	if err := os.Remove(path + compactSuffix); err != nil {
		t.Fatal(err)
	}
	prev := st.SegmentBytes
	for id := uint64(20); j.Stats().Rotations == 0; id++ {
		if id > 40 {
			t.Fatal("no rotation after the obstacle went")
		}
		if err := j.Admit(admit(id)); err != nil {
			t.Fatal(err)
		}
		if j.Stats().Rotations == 0 {
			frame, prev = j.Stats().SegmentBytes-prev, j.Stats().SegmentBytes
			if prev > retryAt {
				t.Fatalf("segment at %d bytes, past the retry point %d, and not rotated", prev, retryAt)
			}
		} else if prev+frame <= retryAt {
			t.Fatalf("rotated at %d bytes, before the retry point %d", prev+frame, retryAt)
		}
	}
	if len(warnings) != 1 {
		t.Errorf("warnings after recovery: %q", warnings)
	}
}

// TestFailedRotationKeepsSequence: a compaction that fails part-way —
// here every write of the compacted segment fails — leaves the
// journal's sequence as if it never ran, so the records appended after
// it continue the log's sequence without a gap.
func TestFailedRotationKeepsSequence(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := os.Symlink("/dev/full", path+compactSuffix); err != nil {
		t.Fatal(err)
	}
	warned := 0
	j, err := Open(path, Options{NoSync: true, segmentBytes: 256, warn: func(string, ...any) { warned++ }})
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(1)
	for ; warned == 0; id++ {
		if id > 20 {
			t.Fatal("compaction onto a full device never failed")
		}
		if err := j.Admit(admit(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Admit(admit(id)); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Rotations != 0 || st.BytesTotal != uint64(st.SegmentBytes) {
		t.Fatalf("stats %+v: want no rotation and every byte counted once", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := Recover(f)
	if err != nil {
		t.Fatal(err)
	}
	if rec.MaxSeq != id || len(rec.Entries) != int(id) {
		t.Fatalf("recovered %d entries up to seq %d, want %d on an unbroken sequence", len(rec.Entries), rec.MaxSeq, id)
	}
}

// TestRotationCompaction drives enough settled lifecycles through a
// tiny segment limit to force rotation, then checks the compacted
// file holds only the incomplete entries and folds identically.
func TestRotationCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, Options{NoSync: true, segmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	// Two long-lived incomplete entries bracket a churn of settled ones.
	if err := j.Admit(admit(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Lease(1, "lean", 60); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(admit(2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Defer(2); err != nil {
		t.Fatal(err)
	}
	for id := uint64(10); id < 100; id++ {
		if err := j.Admit(admit(id)); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Lease(id, "hungry", 60); err != nil {
			t.Fatal(err)
		}
		if err := j.Settle(id, StateCompleted, float64(id), 0.1, 1, ""); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Rotations == 0 {
		t.Fatal("no rotation under a 2 KiB segment limit")
	}
	if st.SegmentBytes > 2048+1024 {
		t.Errorf("active segment %d bytes despite compaction", st.SegmentBytes)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 4096 {
		t.Errorf("on-disk journal %d bytes; compaction should keep it near the pending set", fi.Size())
	}
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending := j2.Pending()
	if len(pending) != 2 {
		t.Fatalf("pending %d after compaction, want 2", len(pending))
	}
	if pending[0].State != StateLeased || pending[0].SED != "lean" {
		t.Errorf("entry 1 lost its lease through compaction: %+v", pending[0])
	}
	if pending[1].State != StateDeferred {
		t.Errorf("entry 2 lost its park through compaction: %+v", pending[1])
	}
	// Rotation dropped the settled bulk; only lifecycles settled after
	// the last rotation may remain in the tail.
	if got := len(j2.Settled()); got >= 45 {
		t.Errorf("%d of 90 settled entries survived compaction", got)
	}
}

// TestAbandon is the crash drill: appends after Abandon are lost with
// ErrClosed, appends before it survive on disk.
func TestAbandon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(admit(1)); err != nil {
		t.Fatal(err)
	}
	j.Abandon()
	if err := j.Admit(admit(2)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after Abandon: %v, want ErrClosed", err)
	}
	if err := j.Settle(1, StateCompleted, 1, 1, 1, ""); !errors.Is(err, ErrClosed) {
		t.Errorf("settle after Abandon: %v, want ErrClosed", err)
	}
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(j2.Pending()); got != 1 {
		t.Errorf("pending %d, want the pre-crash admission only", got)
	}
}

// TestRecoverEmpty folds an empty log.
func TestRecoverEmpty(t *testing.T) {
	rec, err := Recover(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated || rec.Records != 0 || len(rec.Entries) != 0 {
		t.Errorf("empty log folded to %+v", rec)
	}
}

// FuzzRecover feeds arbitrary bytes to Recover, the decoder a
// restarting master runs on a log read back from disk. It must never
// fail on an in-memory reader, its good prefix must fit the input, and
// that prefix alone must read back clean and fold to the same state.
func FuzzRecover(f *testing.F) {
	var log bytes.Buffer
	for _, rec := range []Record{
		{Seq: 1, T: 1, State: StateAdmitted, ID: 1, Service: "compute", Ops: 1e6, Class: "batch"},
		{Seq: 2, T: 2, State: StateLeased, ID: 1, SED: "lean", Expiry: 9},
		{Seq: 3, T: 3, State: StateCompleted, ID: 1, FinishAt: 3, EnergyJ: 5},
	} {
		rec := rec
		if _, err := writeFrame(&log, &rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(log.Bytes())
	f.Add(log.Bytes()[:log.Len()-5]) // torn inside the last payload
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := Recover(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Recover failed on an in-memory log: %v", err)
		}
		if first.GoodBytes < 0 || first.GoodBytes > int64(len(data)) {
			t.Fatalf("good prefix %d bytes of a %d-byte log", first.GoodBytes, len(data))
		}
		again, err := Recover(bytes.NewReader(data[:first.GoodBytes]))
		if err != nil {
			t.Fatal(err)
		}
		if again.Truncated {
			t.Fatalf("good prefix reads back torn: %s", again.Reason)
		}
		first.Truncated, first.Reason = false, ""
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("good prefix folds differently:\n%+v\n%+v", first, again)
		}
	})
}
