package dynamic

import (
	"errors"
	"fmt"
	"io/fs"
	"math"

	"socialrec/internal/faults"
	"socialrec/internal/frame"
)

// Updater intent journal: the streaming path's crash-safe budget record.
// Beyond the ε spent it records enough intent — which WAL range, which
// artifact version, full or delta — for a restarted Updater to finish a
// crashed publish deterministically instead of abandoning the journaled ε:
//
//   - The journal is written durably BEFORE the accountant is charged and
//     before any artifact is persisted. A crash after the write but before
//     the artifact lands leaves a "pending intent": spend counted, artifact
//     missing.
//   - On open, a pending intent is reconciled by recomputation: the WAL is
//     replayed through Seq, the release of the recorded Kind is recomputed
//     with the same derived noise seed, and the artifact is persisted at
//     the recorded Version WITHOUT journaling again. The recomputation is
//     bit-deterministic, so the artifact is byte-identical to the one the
//     crashed run would have written, and Σε is charged exactly once.
//
// Over-counting remains the safe failure direction: if recomputation is
// impossible (WAL truncated past Seq), the spend stands and the release is
// skipped.
const intentMagic = "SOCUPD02"

// intentKind records which artifact a journaled publish produces.
type intentKind uint8

const (
	intentNone  intentKind = 0 // no publish journaled yet
	intentFull  intentKind = 1
	intentDelta intentKind = 2
)

func (k intentKind) String() string {
	switch k {
	case intentFull:
		return "full"
	case intentDelta:
		return "delta"
	}
	return "none"
}

// intentState is the durable updater accounting. Exactly one lives at
// UpdaterConfig.JournalPath; each publish overwrites it atomically.
type intentState struct {
	// Releases counts journaled publishes, including one that crashed
	// before its artifact landed.
	Releases uint64
	// Spent is the total ε journaled against the preference partition.
	Spent float64
	// PrevSeq is the WAL sequence the PREVIOUS release covered; the
	// touched-vertex set of this release is the records in
	// (PrevSeq, Seq].
	PrevSeq uint64
	// Seq is the WAL sequence this release covers.
	Seq uint64
	// Version is the store version the artifact lands at.
	Version uint64
	// Kind is full or delta.
	Kind intentKind
	// Base is the served version the delta chains to (Kind==intentDelta).
	Base uint64
}

// errIntentCorrupt reports an unreadable intent journal. It is fatal:
// publishing with untrusted spend accounting could re-spend budget.
var errIntentCorrupt = errors.New("dynamic: updater journal corrupt")

// readIntent loads the journal. ok is false when the file does not exist
// (a fresh deployment).
func readIntent(fsys faults.FS, path string) (st intentState, ok bool, err error) {
	err = frame.ReadFile(fsys, path, intentMagic, func(r *frame.Reader) error {
		st = intentState{
			Releases: r.U64("releases"),
			Spent:    r.F64("spent"),
			PrevSeq:  r.U64("previous seq"),
			Seq:      r.U64("seq"),
			Version:  r.U64("version"),
			Kind:     intentKind(r.U8("kind")),
			Base:     r.U64("base"),
		}
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) {
		return intentState{}, false, nil
	}
	if err != nil {
		return intentState{}, false, fmt.Errorf("%w: %s: %v", errIntentCorrupt, path, err)
	}
	if math.IsNaN(st.Spent) || math.IsInf(st.Spent, 0) || st.Spent < 0 {
		return intentState{}, false, fmt.Errorf("%w: %s: spend out of range", errIntentCorrupt, path)
	}
	if st.Kind > intentDelta || st.PrevSeq > st.Seq {
		return intentState{}, false, fmt.Errorf("%w: %s: inconsistent intent", errIntentCorrupt, path)
	}
	return st, true, nil
}

// writeIntent persists the journal as one frame with the same-dir-temp +
// fsync + atomic-rename discipline: a crash mid-write leaves either the old
// journal or the new one, never a torn file.
//
//	releases  u64
//	spent     f64
//	prevSeq   u64
//	seq       u64
//	version   u64
//	kind      u8    0 none, 1 full, 2 delta
//	base      u64
func writeIntent(fsys faults.FS, path string, st intentState) error {
	return frame.WriteFile(fsys, path, intentMagic, func(w *frame.Writer) error {
		w.U64(st.Releases)
		w.F64(st.Spent)
		w.U64(st.PrevSeq)
		w.U64(st.Seq)
		w.U64(st.Version)
		w.U8(uint8(st.Kind))
		w.U64(st.Base)
		return nil
	})
}
