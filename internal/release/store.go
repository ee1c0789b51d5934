package release

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"socialrec/internal/faults"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// Kind is one family of versioned files in a store directory. Each
// persisted artifact is one immutable file named prefix + zero-padded
// version + suffix, so lexical and numeric order agree; an in-progress save
// is a ".tmp" sibling that becomes visible only through an atomic rename.
type Kind struct{ prefix, suffix string }

// The store's versioned file kinds. Fulls and Deltas share one version
// space (NextVersion); sharded generations number their manifests apart.
var (
	Fulls     = Kind{"release-", ".socrec"}
	Deltas    = Kind{"delta-", ".socdlt"}
	Manifests = Kind{"manifest-", ".socman"}
)

// file renders the filename of version v.
func (k Kind) file(v uint64) string {
	return fmt.Sprintf("%s%012d%s", k.prefix, v, k.suffix)
}

// Store persists releases crash-safely in one directory and recovers the
// newest valid version on open.
//
// Durability protocol (Save): write to a temporary file in the same
// directory, fsync the file, close it, atomically rename it to its
// versioned final name, fsync the directory. A crash at any point leaves
// either the previous versions untouched (the temp file is invisible
// debris, removed on the next Open) or the new version fully durable —
// never a half-written file under a final name. Should a torn file appear
// under a final name anyway (disk corruption, an external writer), Load's
// CRC validation skips it and falls back to the next-newest valid version,
// reporting what was skipped.
//
// Store methods are not safe for concurrent use with each other; callers
// (cmd/recserve's reload path) serialize them. The *Release values they
// return are immutable and safe to share.
type Store struct {
	dir  string
	fsys faults.FS
	logf func(format string, args ...any)

	saves        *telemetry.Counter
	saveFailures *telemetry.Counter
	recoveries   *telemetry.Counter
	tempCleaned  *telemetry.Counter
}

// StoreOptions configures OpenStore. The zero value selects the real
// filesystem, telemetry.Default() and log.Printf.
type StoreOptions struct {
	// FS is the filesystem the store operates on; nil selects faults.OS.
	// Tests inject a faults.NewFS wrapper here.
	FS faults.FS
	// Metrics receives the store's counters; nil selects
	// telemetry.Default().
	Metrics *telemetry.Registry
	// Logf receives recovery notices (corrupt versions skipped, temp
	// debris removed); nil selects log.Printf.
	Logf func(format string, args ...any)
}

// Skipped records one release file that recovery passed over and why.
type Skipped struct {
	// Name is the file's name within the store directory.
	Name string
	// Err is the validation failure (truncation, CRC mismatch, bad magic).
	Err error
}

// OpenStore opens (creating if needed) a release store rooted at dir and
// removes any temporary-file debris a crashed save left behind.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
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
	s := &Store{
		dir:  dir,
		fsys: fsys,
		logf: logf,
		saves: reg.NewCounter("release_store_saves_total",
			"releases persisted successfully"),
		saveFailures: reg.NewCounter("release_store_save_failures_total",
			"release persists that failed before becoming durable"),
		recoveries: reg.NewCounter("release_store_recoveries_total",
			"corrupt or truncated release files skipped during load"),
		tempCleaned: reg.NewCounter("release_store_temp_cleaned_total",
			"crashed-save temporary files removed on open"),
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("release: opening store %s: %w", dir, err)
	}
	// Sweep debris from saves that crashed before their rename; the
	// versions they were building were never visible, so removal is safe
	// and keeps the directory scan-clean. Sharded generations and delta
	// releases leave the same kind of debris under their own prefixes.
	removed, err := faults.SweepTmp(fsys, dir, Fulls.prefix, Manifests.prefix, shardPrefix, Deltas.prefix)
	for _, name := range removed {
		s.tempCleaned.Inc()
		logf("release: store %s: removed stale temp %s (crashed save)", dir, name)
	}
	if err != nil {
		logf("release: store %s: sweeping stale temps: %v", dir, err)
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Versions lists the persisted versions of one kind in ascending order,
// without validating file contents. Temp files and foreign names are
// ignored.
func (s *Store) Versions(k Kind) ([]uint64, error) {
	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("release: listing store %s: %w", s.dir, err)
	}
	var out []uint64
	for _, name := range names {
		rest, hasPrefix := strings.CutPrefix(name, k.prefix)
		digits, hasSuffix := strings.CutSuffix(rest, k.suffix)
		if !hasPrefix || !hasSuffix {
			continue
		}
		if v, err := strconv.ParseUint(digits, 10, 64); err == nil {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Save persists r as the next version, returning the version number it
// became. On any failure nothing becomes visible: the half-written temp
// file is removed (best-effort) and previously saved versions are
// untouched, so a reopened store keeps serving the last good release.
func (s *Store) Save(r *Release) (uint64, error) {
	v, err := s.save(r)
	if err != nil {
		s.saveFailures.Inc()
		return 0, err
	}
	s.saves.Inc()
	return v, nil
}

func (s *Store) save(r *Release) (uint64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	// Full generations and deltas share one monotonic version space, so a
	// full save lands past any newer delta and serving lineage stays
	// totally ordered.
	next, err := s.NextVersion()
	if err != nil {
		return 0, err
	}
	final := filepath.Join(s.dir, Fulls.file(next))
	if err := faults.WriteAtomicFunc(s.fsys, final, func(w io.Writer) error {
		return Write(w, r)
	}); err != nil {
		return 0, fmt.Errorf("release: saving version %d: %w", next, err)
	}
	return next, nil
}

// ErrStoreEmpty is returned by LoadContext when the store holds no valid
// release.
var ErrStoreEmpty = errors.New("release: store holds no valid release")

// LoadContext opens the newest valid release, working backwards over
// corrupt or truncated versions. skipped lists what recovery passed over,
// newest first; each skip is also counted on
// release_store_recoveries_total and logged. The error is ErrStoreEmpty
// when no version validates. A context carrying an active trace (an admin
// reload request) gets a "release_store_load" child span recording the
// version recovered and how many files were skipped.
func (s *Store) LoadContext(ctx context.Context) (rel *Release, version uint64, skipped []Skipped, err error) {
	ctx, sp := trace.StartChild(ctx, "release_store_load")
	defer sp.End()
	return newest(s, sp, Fulls, func(v uint64) (*Release, error) { return s.LoadVersionContext(ctx, v) })
}

// newest loads the newest version of kind k that load accepts, working
// backwards over corrupt or truncated ones; each skip is counted on
// release_store_recoveries_total, logged and reported, newest first. The
// error is ErrStoreEmpty when no version loads.
func newest[T any](s *Store, sp trace.Span, k Kind, load func(uint64) (T, error)) (out T, version uint64, skipped []Skipped, err error) {
	versions, err := s.Versions(k)
	if err != nil {
		sp.SetStatus(trace.StatusError)
		return out, 0, nil, err
	}
	for i := len(versions) - 1; i >= 0; i-- {
		v := versions[i]
		got, err := load(v)
		if err != nil {
			s.recoveries.Inc()
			s.logf("release: store %s: skipping %s: %v", s.dir, k.file(v), err)
			skipped = append(skipped, Skipped{Name: k.file(v), Err: err})
			continue
		}
		sp.Set(attrVersion.Int(int64(v)))
		sp.Set(attrSkipped.Int(int64(len(skipped))))
		return got, v, skipped, nil
	}
	sp.SetStatus(trace.StatusError)
	return out, 0, skipped, fmt.Errorf("%w (dir %s, %d file(s) skipped)", ErrStoreEmpty, s.dir, len(skipped))
}

// Span attribute keys for store spans: version numbers and skip counts only,
// never release contents.
var (
	attrVersion = trace.NewKey("version")
	attrSkipped = trace.NewKey("skipped")
)

// LoadVersionContext opens one specific version, validating its
// checksum; see LoadContext.
func (s *Store) LoadVersionContext(ctx context.Context, v uint64) (*Release, error) {
	var rel *Release
	if err := s.read(Fulls.file(v), func(f io.Reader) (err error) {
		rel, err = ReadContext(ctx, f)
		return err
	}); err != nil {
		return nil, fmt.Errorf("release: loading version %d: %w", v, err)
	}
	return rel, nil
}

// read opens one store file and hands it to decode. The file is closed
// after; a close failure is reported even though decode already checked
// the contents.
func (s *Store) read(name string, decode func(io.Reader) error) error {
	f, err := s.fsys.Open(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	err = decode(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	return err
}
