package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"socialrec/internal/faults"
	"socialrec/internal/telemetry"
)

func testOpts() Options {
	return Options{Metrics: telemetry.NewRegistry(), Logf: func(string, ...any) {}}
}

// appendStream appends n deterministic mutations and syncs.
func appendStream(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		op := Op(i%int(opMax)) + 1
		if _, err := l.Append(op, int64(i), int64(i*2)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// collect replays everything above `after` into a slice.
func collect(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(after, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendSyncReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 5 * recLen // force rotation every ~4 records
	l, rep, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rep.Records != 0 || rep.LastSeq != 0 {
		t.Fatalf("fresh log reports %+v", rep)
	}
	appendStream(t, l, 20)
	got := collect(t, l, 0)
	if len(got) != 20 {
		t.Fatalf("replayed %d records, want 20", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || r.A != int64(i) || r.B != int64(i*2) {
			t.Fatalf("record %d = %+v mismatch", i, r)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d", len(segs))
	}

	// Reopen: everything synced must survive, byte-for-byte.
	l2, rep2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rep2.LastSeq != 20 || rep2.Records != 20 || rep2.TornBytes != 0 || len(rep2.Quarantined) != 0 {
		t.Fatalf("reopen recovery = %+v", rep2)
	}
	if got2 := collect(t, l2, 0); len(got2) != 20 {
		t.Fatalf("replayed %d records after reopen, want 20", len(got2))
	}
	// New appends continue the sequence.
	seq, err := l2.Append(OpAddUser, 99, 0)
	if err != nil || seq != 21 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

// TestRecoverTornTailEveryOffset cuts the newest segment at every byte
// offset inside its last record and proves recovery truncates exactly the
// torn record, keeps everything before it, and is idempotent.
func TestRecoverTornTailEveryOffset(t *testing.T) {
	const n = 6
	build := func(t *testing.T) (dir, seg string, lastRecOff int64) {
		dir = t.TempDir()
		l, _, err := Open(dir, testOpts())
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		appendStream(t, l, n)
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
		if len(segs) != 1 {
			t.Fatalf("want 1 segment, got %d", len(segs))
		}
		st, err := os.Stat(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		return dir, segs[0], st.Size() - recLen
	}
	for cut := 0; cut < recLen; cut++ {
		dir, seg, lastOff := build(t)
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, raw[:lastOff+int64(cut)], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rep, err := Open(dir, testOpts())
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		wantTorn := cut
		if rep.TornBytes != wantTorn {
			t.Fatalf("cut %d: torn bytes %d, want %d", cut, rep.TornBytes, wantTorn)
		}
		if rep.LastSeq != n-1 {
			t.Fatalf("cut %d: last seq %d, want %d", cut, rep.LastSeq, n-1)
		}
		if len(rep.Quarantined) != 0 {
			t.Fatalf("cut %d: a torn tail must truncate, not quarantine: %+v", cut, rep.Quarantined)
		}
		if got := collect(t, l, 0); len(got) != n-1 {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), n-1)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		// Idempotence: a second recovery finds a clean log.
		l2, rep2, err := Open(dir, testOpts())
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if rep2.TornBytes != 0 || len(rep2.Quarantined) != 0 || rep2.LastSeq != n-1 {
			t.Fatalf("cut %d: second recovery not clean: %+v", cut, rep2)
		}
		l2.Close()
	}
}

// TestRecoverQuarantineReport corrupts a mid-segment record and checks the
// quarantine report: reason, location, and the durable quarantine file
// holding exactly the corrupt bytes — never a silent skip, never loss.
func TestRecoverQuarantineReport(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendStream(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of record 3 (0-indexed 2).
	recOff := segHeaderLen + 2*recLen
	corrupted := append([]byte(nil), raw...)
	corrupted[recOff+recHeaderLen+3] ^= 0xff
	if err := os.WriteFile(segs[0], corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rep, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined %d stretches, want 1: %+v", len(rep.Quarantined), rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Reason != "checksum mismatch" {
		t.Fatalf("reason = %q", q.Reason)
	}
	if q.Segment != filepath.Base(segs[0]) || q.Offset != int64(recOff) || q.Len != recLen {
		t.Fatalf("quarantine location = %+v", q)
	}
	qraw, err := os.ReadFile(filepath.Join(dir, q.File))
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if string(qraw) != string(corrupted[recOff:recOff+recLen]) {
		t.Fatalf("quarantine file holds %d bytes that differ from the corrupt record", len(qraw))
	}
	// The four intact records survive; the corrupt one is a gap.
	got := collect(t, l2, 0)
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
	for _, r := range got {
		if r.Seq == 3 {
			t.Fatalf("corrupt record leaked into replay")
		}
	}
	l2.Close()

	// Reopen: no re-quarantine, but the file is still listed (no loss).
	_, rep2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rep2.Quarantined) != 0 {
		t.Fatalf("second recovery re-quarantined: %+v", rep2.Quarantined)
	}
	found := false
	for _, f := range rep2.QuarantineFiles {
		if f == q.File {
			found = true
		}
	}
	if !found {
		t.Fatalf("quarantine file %s lost after reopen: %v", q.File, rep2.QuarantineFiles)
	}
}

// TestRecoverImplausibleLength scribbles a record's length field so the
// boundary chain is lost: the remainder is quarantined as one stretch.
func TestRecoverImplausibleLength(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendStream(t, l, 5)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	raw, _ := os.ReadFile(segs[0])
	recOff := segHeaderLen + 2*recLen
	raw[recOff] = 0xff // length field low byte -> implausible
	raw[recOff+1] = 0xff
	raw[recOff+2] = 0xff
	os.WriteFile(segs[0], raw, 0o644)

	l2, rep, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer l2.Close()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "implausible record length" {
		t.Fatalf("quarantine = %+v", rep.Quarantined)
	}
	if rep.LastSeq != 2 {
		t.Fatalf("last seq %d, want 2", rep.LastSeq)
	}
	if got := collect(t, l2, 0); len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
}

// TestRecoverBadHeader quarantines a whole segment whose header is gone.
func TestRecoverBadHeader(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 3 * recLen
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendStream(t, l, 4)
	appendStream(t, l, 4)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %d", len(segs))
	}
	raw, _ := os.ReadFile(segs[0])
	copy(raw, "XXXXXXXX")
	os.WriteFile(segs[0], raw, 0o644)

	l2, rep, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer l2.Close()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "bad segment header" {
		t.Fatalf("quarantine = %+v", rep.Quarantined)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != filepath.Base(segs[0]) {
		t.Fatalf("removed = %v", rep.Removed)
	}
	if _, err := os.Stat(segs[0]); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("quarantined segment still present")
	}
}

// TestReplayFromSeq: replay strictly above a consumer's durable mark
// delivers each record exactly once — replaying the same log twice from
// the mark is a no-op, and later records arrive once.
func TestReplayFromSeq(t *testing.T) {
	l, _, err := Open(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendStream(t, l, 8)

	first := collect(t, l, 0)
	if len(first) != 8 {
		t.Fatalf("first replay: %d records", len(first))
	}
	mark := first[len(first)-1].Seq
	if mark != 8 {
		t.Fatalf("last seq = %d, want 8", mark)
	}
	if again := collect(t, l, mark); len(again) != 0 {
		t.Fatalf("second replay over the same segments delivered %d records, want 0", len(again))
	}
	// New records past the mark are delivered exactly once.
	appendStream(t, l, 3)
	if tail := collect(t, l, mark); len(tail) != 3 || tail[0].Seq != mark+1 {
		t.Fatalf("tail replay: %d records, want 3 from seq %d", len(tail), mark+1)
	}
}

// TestTruncateThrough removes only segments fully covered by the retention
// watermark and never the newest one.
func TestTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 3 * recLen
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 4; i++ {
		appendStream(t, l, 2)
	}
	segsBefore, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segsBefore) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segsBefore))
	}
	removed, err := l.TruncateThrough(4)
	if err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if len(removed) == 0 {
		t.Fatalf("retention removed nothing")
	}
	// Records above the watermark all survive.
	got := collect(t, l, 4)
	if len(got) != 4 {
		t.Fatalf("replayed %d records above watermark, want 4", len(got))
	}
	// The newest segment survives even a max watermark.
	if _, err := l.TruncateThrough(1 << 60); err != nil {
		t.Fatalf("truncate max: %v", err)
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segsAfter) == 0 {
		t.Fatalf("retention removed the newest segment")
	}
}

// TestFaultSweepAppendSync arms every filesystem fault point in turn,
// drives appends through the failure, and proves a reopened log recovers
// exactly the previously durable prefix and keeps working.
func TestFaultSweepAppendSync(t *testing.T) {
	points := []faults.Point{
		faults.PointFSCreate, faults.PointFSWrite, faults.PointFSSync,
		faults.PointFSClose, faults.PointFSRename, faults.PointFSSyncDir,
		faults.PointFSReadDir, faults.PointFSOpen, faults.PointFSRead,
	}
	for _, p := range points {
		p := p
		t.Run(string(p), func(t *testing.T) {
			dir := t.TempDir()
			// Durable prefix written with a clean FS.
			l, _, err := Open(dir, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			appendStream(t, l, 5)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			reg := faults.New(1)
			opts := testOpts()
			opts.FS = faults.NewFS(faults.OS{}, reg)
			lf, _, err := Open(dir, opts)
			if err != nil {
				// Recovery itself hit the armed point before arming?
				// (Nothing armed yet — this open must succeed.)
				t.Fatalf("open with fault FS: %v", err)
			}
			reg.Arm(p, faults.Plan{Err: faults.ErrInjected})
			var failed bool
			for i := 0; i < 5; i++ {
				if _, err := lf.Append(OpAddPref, int64(i), int64(i)); err != nil {
					failed = true
					break
				}
				if err := lf.Sync(); err != nil {
					failed = true
					break
				}
			}
			reg.DisarmAll()
			_ = lf.Close()
			if !failed && reg.Fired(p) == 0 {
				t.Skipf("point %s not exercised by append/sync", p)
			}

			// Recovery after the crash: only durable records survive; the
			// log accepts new appends.
			l2, rep, err := Open(dir, testOpts())
			if err != nil {
				t.Fatalf("recover after %s: %v", p, err)
			}
			defer l2.Close()
			if rep.LastSeq < 5 {
				t.Fatalf("lost durable records after %s: last seq %d", p, rep.LastSeq)
			}
			got := collect(t, l2, 0)
			if uint64(len(got)) != rep.Records {
				t.Fatalf("replay saw %d records, recovery reported %d", len(got), rep.Records)
			}
			for i, r := range got {
				if r.Seq <= 5 && (r.Seq != uint64(i+1)) {
					t.Fatalf("durable prefix reordered: %+v at %d", r, i)
				}
			}
			if _, err := l2.Append(OpAddUser, 1, 0); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := l2.Sync(); err != nil {
				t.Fatalf("sync after recovery: %v", err)
			}
		})
	}
}

// TestPoisonAfterSyncFailure: a failed sync poisons the log so nothing can
// be appended behind a possibly-torn tail.
func TestPoisonAfterSyncFailure(t *testing.T) {
	dir := t.TempDir()
	reg := faults.New(7)
	opts := testOpts()
	opts.FS = faults.NewFS(faults.OS{}, reg)
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(OpAddUser, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	reg.Arm(faults.PointFSWrite, faults.Plan{Err: faults.ErrInjected})
	if _, err := l.Append(OpAddUser, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync under injected write fault succeeded")
	}
	reg.DisarmAll()
	if _, err := l.Append(OpAddUser, 2, 0); err == nil {
		t.Fatal("append on poisoned log succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync on poisoned log succeeded")
	}
	_ = l.Close()
	// Reopen truncates the torn half-write and serves the durable prefix.
	l2, rep, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rep.LastSeq != 1 {
		t.Fatalf("recovered last seq %d, want 1", rep.LastSeq)
	}
}

func TestOpNames(t *testing.T) {
	for op := OpAddUser; op <= opMax; op++ {
		if op.String() == "invalid" {
			t.Fatalf("op %d has no name", op)
		}
	}
	if Op(0).String() != "invalid" || Op(200).String() != "invalid" {
		t.Fatal("invalid ops must stringify as invalid")
	}
	var sb strings.Builder
	sb.WriteString(OpAddPref.String())
	if strings.Contains(sb.String(), "%") {
		t.Fatal("op names are static")
	}
}
