package pipeline

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strings"

	"socialrec/internal/faults"
	"socialrec/internal/frame"
	"socialrec/internal/telemetry"
)

// Checkpoint file layout. Each completed step leaves one artifact file
// plus one receipt file; the receipt is written last and is the step's
// commit point. Every file is one internal/frame frame written
// through frame.WriteFile, so a crash at any moment leaves either the
// previous checkpoint intact or the new one fully durable — never a torn
// file under a final name.
//
//	<key>.art      one step's value (SaveArtifact lists its fields)
//	<stage>.stage  stage receipt (SaveReceipt lists its fields)
//	*.tmp          in-progress atomic writes; swept on open
const (
	artifactMagic  = "SOCKPT02"
	receiptMagic   = "SOCRCT02"
	artifactSuffix = ".art"
	receiptSuffix  = ".stage"
)

// Artifact is the header of one checkpointed step value; the step's
// Spec codes the value that follows it.
type Artifact struct {
	Stage       string
	Key         string
	Version     int
	Fingerprint uint64
}

// Receipt is a step's commit record: it exists if and only if the step's
// artifact became durable, and it carries the step's ε-spends so the
// checkpoint directory doubles as a persistent budget journal. Outputs
// lists the artifact's key, the one entry a step writes.
type Receipt struct {
	Stage       string
	Version     int
	Fingerprint uint64
	Outputs     []string
	Spends      []telemetry.ReleaseEvent
}

// SpendRecord is one persisted ε-spend read back from a stage receipt.
type SpendRecord struct {
	Stage       string
	Fingerprint uint64
	Event       telemetry.ReleaseEvent
}

// Store reads and writes checkpoint files in one directory through a
// (possibly fault-injecting) filesystem. Methods are not safe for
// concurrent use; the runner serializes them.
type Store struct {
	dir  string
	fsys faults.FS
}

// OpenStore opens (creating if needed) a checkpoint directory and sweeps
// temp debris left by crashed writes. swept reports what was removed.
func OpenStore(dir string, fsys faults.FS) (s *Store, swept []string, err error) {
	if fsys == nil {
		fsys = faults.OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("pipeline: opening checkpoint dir %s: %w", dir, err)
	}
	// Sweep all *.tmp regardless of prefix: every atomic write in this
	// directory is ours.
	swept, err = faults.SweepTmp(fsys, dir)
	if err != nil {
		return nil, swept, fmt.Errorf("pipeline: sweeping checkpoint dir %s: %w", dir, err)
	}
	return &Store{dir: dir, fsys: fsys}, swept, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Clear removes every checkpoint file (artifacts, receipts and temp
// debris), implementing -fresh. Foreign files are left alone.
func (s *Store) Clear() error {
	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("pipeline: clearing checkpoint dir %s: %w", s.dir, err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, artifactSuffix) ||
			strings.HasSuffix(name, receiptSuffix) ||
			strings.HasSuffix(name, faults.AtomicTmpSuffix) {
			if err := s.fsys.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("pipeline: clearing checkpoint dir %s: %w", s.dir, err)
			}
		}
	}
	return nil
}

// SaveArtifact durably writes one artifact, its value written by encode:
//
//	stage    string   producing step
//	key      string
//	version  u32      step code version
//	fp       u64      artifact fingerprint: chain(step fp, key)
//	value    the step's Encode fields
func (s *Store) SaveArtifact(a Artifact, encode func(*frame.Writer) error) error {
	return frame.WriteFile(s.fsys, filepath.Join(s.dir, a.Key+artifactSuffix), artifactMagic, func(w *frame.Writer) error {
		w.String(a.Stage)
		w.String(a.Key)
		w.U32(uint32(a.Version))
		w.U64(a.Fingerprint)
		return encode(w)
	})
}

// LoadArtifact reads and validates the artifact of key, decoding its value
// with decode. Any failure — missing file, bad magic, truncation, CRC
// mismatch, an undecodable value — is an error; the runner treats all of
// them as "checkpoint absent".
func (s *Store) LoadArtifact(key string, decode func(*frame.Reader) error) (*Artifact, error) {
	a := &Artifact{}
	err := frame.ReadFile(s.fsys, filepath.Join(s.dir, key+artifactSuffix), artifactMagic, func(r *frame.Reader) error {
		a.Stage = r.String("stage")
		a.Key = r.String("key")
		a.Version = int(r.U32("version"))
		a.Fingerprint = r.U64("fingerprint")
		if err := r.Err(); err != nil {
			return err
		}
		return decode(r)
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: artifact %s: %w", key, err)
	}
	if a.Key != key {
		return nil, fmt.Errorf("pipeline: artifact %s: header names another key", key)
	}
	return a, nil
}

// SaveReceipt durably writes a step receipt. Callers must only invoke it
// after the artifact the receipt lists is durable: the receipt is the
// step's commit point.
//
//	stage    string
//	version  u32
//	fp       u64      stage fingerprint
//	outputs  u32 count, then each output key as a string
//	spends   u32 count, then each spend as
//	         {mechanism string, epsilon f64, sensitivity f64, values u32}
func (s *Store) SaveReceipt(rc Receipt) error {
	return frame.WriteFile(s.fsys, filepath.Join(s.dir, rc.Stage+receiptSuffix), receiptMagic, func(w *frame.Writer) error {
		w.String(rc.Stage)
		w.U32(uint32(rc.Version))
		w.U64(rc.Fingerprint)
		w.U32(uint32(len(rc.Outputs)))
		for _, k := range rc.Outputs {
			w.String(k)
		}
		w.U32(uint32(len(rc.Spends)))
		for _, ev := range rc.Spends {
			w.String(ev.Mechanism)
			w.F64(ev.Epsilon)
			w.F64(ev.Sensitivity)
			w.U32(uint32(ev.Values))
		}
		return nil
	})
}

// LoadReceipt reads and validates a stage receipt.
func (s *Store) LoadReceipt(stage string) (*Receipt, error) {
	rc := &Receipt{}
	err := frame.ReadFile(s.fsys, filepath.Join(s.dir, stage+receiptSuffix), receiptMagic, func(r *frame.Reader) error {
		rc.Stage = r.String("stage")
		rc.Version = int(r.U32("version"))
		rc.Fingerprint = r.U64("fingerprint")
		for n := r.U32("outputs"); n > 0 && r.Err() == nil; n-- {
			rc.Outputs = append(rc.Outputs, r.String("output key"))
		}
		for n := r.U32("spends"); n > 0 && r.Err() == nil; n-- {
			rc.Spends = append(rc.Spends, telemetry.ReleaseEvent{
				Mechanism:   r.String("spend mechanism"),
				Epsilon:     r.F64("spend epsilon"),
				Sensitivity: r.F64("spend sensitivity"),
				Values:      int(r.U32("spend values")),
			})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: receipt %s: %w", stage, err)
	}
	if rc.Stage != stage {
		return nil, fmt.Errorf("pipeline: receipt %s: header names another stage", stage)
	}
	return rc, nil
}

// RemoveReceipt deletes a stage's receipt (invalidating its checkpoint
// before a re-run). Missing receipts are not an error.
func (s *Store) RemoveReceipt(stage string) error {
	err := s.fsys.Remove(filepath.Join(s.dir, stage+receiptSuffix))
	if err != nil && !isNotExist(err) {
		return fmt.Errorf("pipeline: removing receipt %s: %w", stage, err)
	}
	return nil
}

// Ledger scans the durable stage receipts and returns every persisted
// ε-spend, sorted by stage name. Receipts that fail validation are skipped
// and reported by name: a torn receipt means its stage never committed, so
// its spend is (correctly) absent. Infinite-ε events (deliberately
// non-private runs) are included; the caller decides how to count them.
func (s *Store) Ledger() (records []SpendRecord, skipped []string, err error) {
	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: scanning checkpoint dir %s: %w", s.dir, err)
	}
	sort.Strings(names)
	for _, name := range names {
		stage, ok := strings.CutSuffix(name, receiptSuffix)
		if !ok {
			continue
		}
		rc, err := s.LoadReceipt(stage)
		if err != nil {
			skipped = append(skipped, name)
			continue
		}
		for _, ev := range rc.Spends {
			records = append(records, SpendRecord{Stage: rc.Stage, Fingerprint: rc.Fingerprint, Event: ev})
		}
	}
	return records, skipped, nil
}

// SpentEpsilon sums the finite ε of the given records — the sequential-
// composition bound on what the checkpointed pipeline has durably spent.
func SpentEpsilon(records []SpendRecord) float64 {
	var total float64
	for _, r := range records {
		if !math.IsInf(r.Event.Epsilon, 1) {
			total += r.Event.Epsilon
		}
	}
	return total
}

// isNotExist matches fs.ErrNotExist through the faults.FS wrappers.
func isNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}
