package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"path/filepath"
	"strings"

	"socialrec/internal/faults"
	"socialrec/internal/telemetry"
)

// Quarantine describes one stretch of corrupt bytes recovery extracted.
// Reasons are structural only (lengths, offsets, checksum verdicts) —
// record operands are private data and never appear in reports, errors or
// logs; the raw bytes live in File for offline inspection.
type Quarantine struct {
	// Segment is the segment file the bytes came from.
	Segment string
	// Offset is the byte offset of the corrupt stretch within the segment
	// as found on disk.
	Offset int64
	// Len is the number of quarantined bytes.
	Len int
	// Reason is the structural failure: "checksum mismatch",
	// "non-monotonic sequence", "implausible record length", ...
	Reason string
	// File is the quarantine file (within the log directory) now holding
	// the raw bytes, written with the atomic-write discipline.
	File string
}

// Recovery reports what Open found and repaired.
type Recovery struct {
	// Segments is the number of segment files scanned.
	Segments int
	// Records is the number of valid records across all segments.
	Records uint64
	// LastSeq is the highest valid sequence number found (0 if none).
	LastSeq uint64
	// TornBytes counts bytes dropped from the newest segment's incomplete
	// tail — the expected residue of a crash between Append and Sync.
	TornBytes int
	// Removed lists segment files deleted because no valid record
	// survived in them.
	Removed []string
	// Quarantined lists the corrupt stretches extracted by THIS open.
	Quarantined []Quarantine
	// QuarantineFiles lists every quarantine file present after recovery,
	// including ones from earlier opens — the no-loss audit surface.
	QuarantineFiles []string
}

// segScan is the structural analysis of one segment's raw bytes.
type segScan struct {
	badHeader bool
	base      uint64
	spans     [][2]int // byte spans of valid records, in order
	corrupt   []corruptSpan
	tornOff   int // offset of an incomplete trailing record, if tornLen > 0
	tornLen   int
}

type corruptSpan struct {
	off, end int
	reason   string
}

// scanSegment walks raw, classifying every byte after the header as part
// of a valid record, a complete-but-corrupt record, a lost-boundary tail,
// or a torn (incomplete) tail.
func scanSegment(raw []byte) ([]Record, segScan) {
	var sc segScan
	if len(raw) < segHeaderLen || string(raw[:len(segMagic)]) != segMagic {
		sc.badHeader = true
		return nil, sc
	}
	sc.base = binary.LittleEndian.Uint64(raw[len(segMagic):segHeaderLen])
	var recs []Record
	var prev uint64
	pos := segHeaderLen
	for pos < len(raw) {
		if len(raw)-pos < recHeaderLen {
			sc.tornOff, sc.tornLen = pos, len(raw)-pos
			return recs, sc
		}
		plen := int(binary.LittleEndian.Uint32(raw[pos:]))
		if plen > maxPayloadLen {
			// The length field is garbage, so every later record boundary
			// is unknowable: the whole remainder is one corrupt stretch.
			sc.corrupt = append(sc.corrupt, corruptSpan{pos, len(raw), "implausible record length"})
			return recs, sc
		}
		end := pos + recHeaderLen + plen
		if end > len(raw) {
			sc.tornOff, sc.tornLen = pos, len(raw)-pos
			return recs, sc
		}
		payload := raw[pos+recHeaderLen : end]
		want := binary.LittleEndian.Uint32(raw[pos+4:])
		if crc32.ChecksumIEEE(payload) != want {
			sc.corrupt = append(sc.corrupt, corruptSpan{pos, end, "checksum mismatch"})
			pos = end
			continue
		}
		r, err := decodePayload(payload)
		switch {
		case err != nil:
			sc.corrupt = append(sc.corrupt, corruptSpan{pos, end, err.Error()})
		case r.Seq <= prev:
			sc.corrupt = append(sc.corrupt, corruptSpan{pos, end, "non-monotonic sequence"})
		default:
			recs = append(recs, r)
			sc.spans = append(sc.spans, [2]int{pos, end})
			prev = r.Seq
		}
		pos = end
	}
	return recs, sc
}

// Open opens (creating if needed) the log at dir, recovering it to a
// clean, replayable state: temp debris from crashed atomic writes is
// swept, the newest segment's torn tail is truncated, and corrupt records
// are extracted to durable quarantine files — never silently skipped.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faults.OS{}
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	l := &Log{
		dir:  dir,
		fsys: fsys,
		opts: opts,
		logf: logf,
		appends: reg.NewCounter("wal_appends_total",
			"mutation records appended to the write-ahead log"),
		syncs: reg.NewCounter("wal_syncs_total",
			"batched fsyncs of the write-ahead log"),
		rotations: reg.NewCounter("wal_rotations_total",
			"write-ahead log segment rotations"),
		quarantines: reg.NewCounter("wal_quarantined_records_total",
			"corrupt record stretches extracted to quarantine files"),
		tornTails: reg.NewCounter("wal_torn_truncations_total",
			"torn segment tails truncated during recovery"),
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", dir, err)
	}
	if _, err := faults.SweepTmp(fsys, dir, segPrefix, "quarantine-"); err != nil {
		logf("wal: %s: sweeping stale temps: %v", dir, err)
	}
	rep := &Recovery{}
	segs, err := l.segments()
	if err != nil {
		return nil, nil, err
	}
	for i, name := range segs {
		if err := l.recoverSegment(name, i == len(segs)-1, rep); err != nil {
			return nil, nil, err
		}
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, qrecSuffix) {
			rep.QuarantineFiles = append(rep.QuarantineFiles, name)
		}
	}
	l.lastSeq = rep.LastSeq
	l.durable = rep.LastSeq
	return l, rep, nil
}

// recoverSegment scans one segment and repairs it in place: quarantines
// corrupt stretches, truncates a torn tail (newest segment only — an
// incomplete record inside a sealed segment is corruption, not a crash
// residue), rewrites the segment atomically when anything was dropped, and
// removes it when no valid record survived.
func (l *Log) recoverSegment(name string, last bool, rep *Recovery) error {
	path := filepath.Join(l.dir, name)
	f, err := l.fsys.Open(path)
	if err != nil {
		return fmt.Errorf("wal: opening segment %s: %w", name, err)
	}
	raw, err := readAll(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: reading segment %s: %w", name, err)
	}
	recs, sc := scanSegment(raw)
	rep.Segments++
	if sc.badHeader {
		// The whole file is unclassifiable. Quarantine it and remove it.
		q := Quarantine{Segment: name, Offset: 0, Len: len(raw), Reason: "bad segment header"}
		if err := l.quarantine(&q, raw); err != nil {
			return err
		}
		rep.Quarantined = append(rep.Quarantined, q)
		if err := l.removeSegment(name); err != nil {
			return err
		}
		rep.Removed = append(rep.Removed, name)
		l.logf("wal: %s: quarantined unreadable segment %s (%d bytes) to %s", l.dir, name, len(raw), q.File)
		return nil
	}
	corrupt := sc.corrupt
	tornLen := sc.tornLen
	if tornLen > 0 && !last {
		corrupt = append(corrupt, corruptSpan{sc.tornOff, len(raw), "incomplete record inside sealed segment"})
		tornLen = 0
	}
	for _, cs := range corrupt {
		q := Quarantine{Segment: name, Offset: int64(cs.off), Len: cs.end - cs.off, Reason: cs.reason}
		if err := l.quarantine(&q, raw[cs.off:cs.end]); err != nil {
			return err
		}
		rep.Quarantined = append(rep.Quarantined, q)
		l.logf("wal: %s: quarantined %d corrupt bytes from %s@%d (%s) to %s",
			l.dir, q.Len, name, q.Offset, q.Reason, q.File)
	}
	if tornLen > 0 {
		rep.TornBytes += tornLen
		l.tornTails.Inc()
		l.logf("wal: %s: truncating %d torn tail bytes from %s (crash between append and sync)",
			l.dir, tornLen, name)
	}
	if len(corrupt) > 0 || tornLen > 0 {
		if len(sc.spans) == 0 {
			if err := l.removeSegment(name); err != nil {
				return err
			}
			rep.Removed = append(rep.Removed, name)
		} else {
			rebuilt := make([]byte, 0, segHeaderLen+len(raw))
			rebuilt = append(rebuilt, raw[:segHeaderLen]...)
			for _, sp := range sc.spans {
				rebuilt = append(rebuilt, raw[sp[0]:sp[1]]...)
			}
			if err := faults.WriteAtomic(l.fsys, path, rebuilt); err != nil {
				return fmt.Errorf("wal: rewriting repaired segment %s: %w", name, err)
			}
		}
	}
	rep.Records += uint64(len(recs))
	if n := len(recs); n > 0 && recs[n-1].Seq > rep.LastSeq {
		rep.LastSeq = recs[n-1].Seq
	}
	return nil
}

// quarantine durably writes raw corrupt bytes to a deterministically named
// quarantine file, filling in q.File. Re-running recovery over the same
// corruption rewrites the same file — quarantining is idempotent.
func (l *Log) quarantine(q *Quarantine, data []byte) error {
	q.File = fmt.Sprintf("quarantine-%s-%010d%s", strings.TrimSuffix(q.Segment, segSuffix), q.Offset, qrecSuffix)
	if err := faults.WriteAtomic(l.fsys, filepath.Join(l.dir, q.File), data); err != nil {
		return fmt.Errorf("wal: quarantining %d bytes from %s@%d: %w", q.Len, q.Segment, q.Offset, err)
	}
	l.quarantines.Inc()
	return nil
}

// removeSegment deletes a segment file and makes the removal durable.
func (l *Log) removeSegment(name string) error {
	if err := l.fsys.Remove(filepath.Join(l.dir, name)); err != nil {
		return fmt.Errorf("wal: removing segment %s: %w", name, err)
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: syncing dir after removing %s: %w", name, err)
	}
	return nil
}
