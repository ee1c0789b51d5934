// Package wal is a segmented, checksummed write-ahead log of graph
// mutations: the durable source of truth for the streaming update path.
// Every edge add/remove and population growth event is appended here and
// fsynced (in batches) BEFORE any downstream state — in-memory graphs,
// community repairs, releases — observes it, so a crash at any point can
// be recovered by replay.
//
// Durability and recovery discipline:
//
//   - Records become durable only when Sync returns; Append batches them
//     in memory until then.
//   - A crash mid-append leaves a torn tail: an incomplete record at the
//     physical end of the newest segment. Recovery truncates it (rewriting
//     the segment atomically) and reports the dropped byte count — losing
//     an unsynced suffix is the WAL contract, losing anything else is not.
//   - A complete record whose checksum does not match is NOT the tail of a
//     crash; it is corruption. Recovery never silently skips it: the raw
//     bytes are extracted to a quarantine file, the segment is rewritten
//     without them, and the event is reported. Operators decide what to do
//     with quarantined bytes; the log itself stays replayable.
//   - Replay(after, …) starts strictly above a sequence number the
//     consumer has made durable downstream (the Updater's intent journal
//     records it), so replaying after a crash is idempotent: records at or
//     below that mark are skipped.
//
// On-disk layout, all integers little-endian:
//
//	segment file  wal-<baseseq 016d>.seg
//	  magic   [8]byte "SOCWAL01"
//	  baseseq uint64   (sequence number of the segment's first record)
//	  records:
//	    length uint32   (payload bytes; recPayloadLen for this version)
//	    crc32  uint32   (IEEE, over the payload)
//	    payload: op uint8 | seq uint64 | a int64 | b int64
//
// All I/O goes through faults.FS, so every operation in the append, sync,
// rotation, recovery and retention paths is fault-injectable in tests.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"socialrec/internal/faults"
	"socialrec/internal/telemetry"
)

// Op enumerates the mutation kinds the log records.
type Op uint8

const (
	// OpAddUser grows the user population by one; A is the new user id,
	// which must equal the previous population size (ids are dense).
	OpAddUser Op = 1
	// OpAddItem grows the item population by one; A is the new item id.
	OpAddItem Op = 2
	// OpAddSocial adds the undirected social edge (A, B).
	OpAddSocial Op = 3
	// OpDelSocial removes the social edge (A, B).
	OpDelSocial Op = 4
	// OpAddPref adds the preference edge (user A, item B). Preference
	// edges are the private data: a Record carrying one must never be
	// echoed into logs, errors or other output (sociolint privflow
	// enforces this).
	OpAddPref Op = 5
	// OpDelPref removes the preference edge (user A, item B).
	OpDelPref Op = 6

	opMax = OpDelPref
)

// String names the operation (never its operands).
func (o Op) String() string {
	switch o {
	case OpAddUser:
		return "add-user"
	case OpAddItem:
		return "add-item"
	case OpAddSocial:
		return "add-social"
	case OpDelSocial:
		return "del-social"
	case OpAddPref:
		return "add-pref"
	case OpDelPref:
		return "del-pref"
	}
	return "invalid"
}

// Record is one durable graph mutation. Records for preference edges carry
// raw adjacency — treat every Record as private data: it may be applied to
// graph state or re-encoded, but must never reach an error string, a log
// line, a metric label or an HTTP response.
type Record struct {
	// Seq is the record's log sequence number: strictly increasing,
	// assigned by Append starting at 1.
	Seq uint64
	// Op is the mutation kind.
	Op Op
	// A and B are the operands; see the Op constants.
	A, B int64
}

const (
	segMagic      = "SOCWAL01"
	segHeaderLen  = len(segMagic) + 8 // magic + baseseq
	recHeaderLen  = 8                 // length + crc
	recPayloadLen = 1 + 8 + 8 + 8     // op + seq + a + b
	recLen        = recHeaderLen + recPayloadLen

	// maxPayloadLen bounds a record's claimed payload length. A complete
	// record header claiming more is structurally corrupt (the boundary
	// chain is lost), not merely a failed checksum.
	maxPayloadLen = 1 << 16

	segPrefix = "wal-"
	segSuffix = ".seg"
	// qrecSuffix marks quarantine files holding the raw bytes of corrupt
	// records extracted during recovery.
	qrecSuffix = ".qrec"
)

// segName renders the segment filename for a base sequence number.
func segName(base uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, base, segSuffix)
}

// parseSegName extracts the base sequence from a segment filename.
func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+16+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix ||
		name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var base uint64
	for _, c := range name[len(segPrefix) : len(segPrefix)+16] {
		if c < '0' || c > '9' {
			return 0, false
		}
		base = base*10 + uint64(c-'0')
	}
	return base, true
}

// encodeRecord appends r's wire form to dst.
func encodeRecord(dst []byte, r Record) []byte {
	var payload [recPayloadLen]byte
	payload[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(payload[1:], r.Seq)
	binary.LittleEndian.PutUint64(payload[9:], uint64(r.A))
	binary.LittleEndian.PutUint64(payload[17:], uint64(r.B))
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], recPayloadLen)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload[:]))
	dst = append(dst, hdr[:]...)
	return append(dst, payload[:]...)
}

// decodePayload parses a record payload whose checksum already validated.
func decodePayload(p []byte) (Record, error) {
	if len(p) < recPayloadLen {
		return Record{}, fmt.Errorf("wal: record payload too short (%d bytes)", len(p))
	}
	r := Record{
		Seq: binary.LittleEndian.Uint64(p[1:]),
		Op:  Op(p[0]),
		A:   int64(binary.LittleEndian.Uint64(p[9:])),
		B:   int64(binary.LittleEndian.Uint64(p[17:])),
	}
	if r.Op == 0 || r.Op > opMax {
		return Record{}, fmt.Errorf("wal: unknown op %d", p[0])
	}
	return r, nil
}

// Options configures Open. The zero value selects the real filesystem,
// a 1 MiB segment budget, telemetry.Default() and log.Printf.
type Options struct {
	// FS abstracts the filesystem; nil selects faults.OS. Tests inject a
	// faults.NewFS wrapper to exercise crash windows.
	FS faults.FS
	// SegmentBytes rotates the active segment once its durable size would
	// exceed this; 0 selects 1 MiB. Records never span segments.
	SegmentBytes int64
	// Metrics receives the log's counters; nil selects telemetry.Default().
	Metrics *telemetry.Registry
	// Logf receives recovery notices; nil selects log.Printf.
	Logf func(format string, args ...any)
}

// Log is an append-only mutation log over one directory. It is not safe
// for concurrent use; the streaming updater serializes access.
type Log struct {
	dir  string
	fsys faults.FS
	opts Options
	logf func(format string, args ...any)

	// Active segment state.
	f           faults.File // nil until the first append after Open
	segBase     uint64
	segSize     int64  // durable bytes written to the active segment
	pending     []byte // encoded records not yet written+synced
	pendingEnds []int  // end offset in pending of each buffered record
	pendingN    int

	lastSeq uint64 // last assigned sequence number
	durable uint64 // last sequence number made durable by Sync

	// broken poisons the log after a failed write or sync: the on-disk
	// tail may be torn, and appending more behind it would corrupt the
	// record chain. Every later operation returns this error; recovery is
	// Close + Open, which truncates the torn tail.
	broken error

	appends     *telemetry.Counter
	syncs       *telemetry.Counter
	rotations   *telemetry.Counter
	quarantines *telemetry.Counter
	tornTails   *telemetry.Counter
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// LastSeq returns the last assigned sequence number (0 before any append).
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// Durable returns the last sequence number guaranteed on stable storage.
func (l *Log) Durable() uint64 { return l.durable }

// Append assigns the next sequence number to the mutation and buffers it.
// The record is durable only after the next Sync returns.
func (l *Log) Append(op Op, a, b int64) (uint64, error) {
	if l.broken != nil {
		return 0, l.broken
	}
	if op == 0 || op > opMax {
		return 0, fmt.Errorf("wal: append: unknown op %d", op)
	}
	seq := l.lastSeq + 1
	l.pending = encodeRecord(l.pending, Record{Seq: seq, Op: op, A: a, B: b})
	l.pendingEnds = append(l.pendingEnds, len(l.pending))
	l.pendingN++
	l.lastSeq = seq
	l.appends.Inc()
	return seq, nil
}

// Sync writes the buffered records to the active segment and fsyncs them,
// rotating to fresh segments as the budget fills (records never span a
// segment boundary). On error the durable watermark covers exactly the
// chunks already synced; a partially written chunk behind the failure is
// recovered-or-truncated as a torn tail on the next Open, and the log is
// poisoned against further appends.
func (l *Log) Sync() error {
	if l.broken != nil {
		return l.broken
	}
	for l.pendingN > 0 {
		if l.f != nil && l.segSize > int64(segHeaderLen) && l.segSize+int64(l.pendingEnds[0]) > l.segmentBytes() {
			if err := l.rotate(); err != nil {
				l.broken = err
				return err
			}
		}
		if l.f == nil {
			if err := l.openSegment(l.durable + 1); err != nil {
				l.broken = err
				return err
			}
		}
		// Largest prefix of buffered records that fits the segment budget;
		// always at least one so an oversized record still lands.
		k := 1
		for k < l.pendingN && l.segSize+int64(l.pendingEnds[k]) <= l.segmentBytes() {
			k++
		}
		chunk := l.pending[:l.pendingEnds[k-1]]
		if _, err := l.f.Write(chunk); err != nil {
			l.broken = fmt.Errorf("wal: writing segment %s: %w", segName(l.segBase), err)
			return l.broken
		}
		if err := l.f.Sync(); err != nil {
			l.broken = fmt.Errorf("wal: syncing segment %s: %w", segName(l.segBase), err)
			return l.broken
		}
		l.segSize += int64(len(chunk))
		l.durable += uint64(k)
		l.syncs.Inc()
		// Drop the flushed chunk from the buffer.
		n := copy(l.pending, l.pending[len(chunk):])
		l.pending = l.pending[:n]
		rest := l.pendingEnds[k:]
		for i, end := range rest {
			l.pendingEnds[i] = end - len(chunk)
		}
		l.pendingEnds = l.pendingEnds[:len(rest)]
		l.pendingN -= k
	}
	return nil
}

func (l *Log) segmentBytes() int64 {
	if l.opts.SegmentBytes > 0 {
		return l.opts.SegmentBytes
	}
	return 1 << 20
}

// openSegment creates the active segment for the given base sequence,
// writes its header, and makes the directory entry durable so recovery
// sees the segment even if the process dies before the first record sync.
func (l *Log) openSegment(base uint64) error {
	path := filepath.Join(l.dir, segName(base))
	f, err := l.fsys.Create(path)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", segName(base), err)
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, base)
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: writing segment header %s: %w", segName(base), err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: syncing segment header %s: %w", segName(base), err)
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: syncing dir after creating %s: %w", segName(base), err)
	}
	l.f = f
	l.segBase = base
	l.segSize = int64(segHeaderLen)
	return nil
}

// rotate seals the active segment and arranges for the next Sync to open a
// fresh one.
func (l *Log) rotate() error {
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sealing segment %s: %w", segName(l.segBase), err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment %s: %w", segName(l.segBase), err)
	}
	l.f = nil
	l.rotations.Inc()
	return nil
}

// Close flushes and seals the log. The Log must not be used afterwards. A
// poisoned log closes its file handle but reports the poisoning error.
func (l *Log) Close() error {
	if l.broken != nil {
		if l.f != nil {
			_ = l.f.Close()
			l.f = nil
		}
		return l.broken
	}
	if err := l.Sync(); err != nil {
		if l.f != nil {
			_ = l.f.Close()
			l.f = nil
		}
		return err
	}
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: closing segment %s: %w", segName(l.segBase), err)
	}
	return nil
}

// segments lists the segment files in base-sequence order.
func (l *Log) segments() ([]string, error) {
	names, err := l.fsys.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", l.dir, err)
	}
	var segs []string
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			segs = append(segs, name)
		}
	}
	// ReadDir returns sorted names and segment names are zero-padded, so
	// lexical order is base-sequence order already.
	return segs, nil
}

// ErrStopReplay, returned from a Replay callback, ends the replay early
// without error — for consumers that only want a bounded prefix.
var ErrStopReplay = errors.New("wal: stop replay")

// Replay streams every durable record with sequence number strictly above
// `after` to fn, in order. Buffered records are synced first so the replay
// view matches the durable log. fn returning an error aborts the replay;
// returning ErrStopReplay ends it cleanly.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	if err := l.Sync(); err != nil {
		return err
	}
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for _, name := range segs {
		base, _ := parseSegName(name)
		if l.lastSeq > 0 && base > l.lastSeq {
			break
		}
		if err := l.replaySegment(name, after, fn); err != nil {
			if errors.Is(err, ErrStopReplay) {
				return nil
			}
			return err
		}
	}
	return nil
}

// replaySegment streams one recovered segment. Recovery has already
// truncated torn tails and quarantined corrupt records, so any structural
// or checksum failure here is new corruption and aborts the replay; replay
// never silently drops records.
func (l *Log) replaySegment(name string, after uint64, fn func(Record) error) error {
	f, err := l.fsys.Open(filepath.Join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: opening segment %s: %w", name, err)
	}
	defer f.Close()
	raw, err := readAll(f)
	if err != nil {
		return fmt.Errorf("wal: reading segment %s: %w", name, err)
	}
	recs, scan := scanSegment(raw)
	if scan.badHeader || scan.tornLen > 0 || len(scan.corrupt) > 0 {
		return fmt.Errorf("wal: segment %s corrupt during replay (%d torn bytes, %d bad records); reopen the log to recover",
			name, scan.tornLen, len(scan.corrupt))
	}
	for _, r := range recs {
		if r.Seq <= after {
			continue
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// TruncateThrough removes whole segments whose records all have sequence
// numbers at or below seq — retention for mutations already folded into a
// durable downstream artifact (a persisted release plus its journaled
// sequence number). The
// newest segment is always kept so the log retains its sequence position.
// Callers are responsible for not truncating history they still need to
// rebuild state from (see the streaming runbook in the README).
func (l *Log) TruncateThrough(seq uint64) (removed []string, err error) {
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(segs); i++ {
		nextBase, _ := parseSegName(segs[i+1])
		// Every record in segs[i] has sequence < nextBase.
		if nextBase > seq+1 {
			break
		}
		if base, _ := parseSegName(segs[i]); l.f != nil && base == l.segBase {
			break
		}
		if err := l.fsys.Remove(filepath.Join(l.dir, segs[i])); err != nil {
			return removed, fmt.Errorf("wal: removing retained segment %s: %w", segs[i], err)
		}
		removed = append(removed, segs[i])
	}
	if len(removed) > 0 {
		if err := l.fsys.SyncDir(l.dir); err != nil {
			return removed, fmt.Errorf("wal: syncing dir after retention: %w", err)
		}
	}
	return removed, nil
}

// readAll reads a segment file to EOF.
func readAll(f faults.File) ([]byte, error) { return io.ReadAll(f) }
