package faults

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"strings"
)

// AtomicTmpSuffix is appended to a file's final name while WriteAtomicFunc
// is building it. Recovery code sweeping a directory after a crash can
// recognize (and safely delete) debris by this suffix: a temp file's
// contents were never visible under the final name.
const AtomicTmpSuffix = ".tmp"

// WriteAtomicFunc durably writes a file using the crash-safe discipline
// shared by the release store and, through frame.WriteFile, the pipeline
// checkpoint store and the updater's intent journal: stream the contents
// into a same-directory temporary file, fsync it, close it, atomically
// rename it onto the final name, then fsync the directory so the rename
// itself survives a crash.
//
// A crash (or injected fault) at any point leaves either no file under the
// final name, or the previous file intact, or the new file fully durable —
// never a torn file under the final name. On failure the temporary file is
// removed best-effort; directory sweeps (see SweepTmp) clean up what a hard
// crash leaves behind.
func WriteAtomicFunc(fsys FS, path string, write func(io.Writer) error) error {
	// Remember whether the final name already holds durable data: the
	// directory-sync failure handling below must never delete it. A probe
	// failure other than not-exist conservatively counts as existing.
	existed := true
	if probe, err := fsys.Open(path); err == nil {
		_ = probe.Close()
	} else if errors.Is(err, iofs.ErrNotExist) {
		existed = false
	}
	tmp := path + AtomicTmpSuffix
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("faults: atomic write %s: create: %w", path, err)
	}
	fail := func(step string, err error) error {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("faults: atomic write %s: %s: %w", path, step, err)
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return fail("write", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		return fail("close", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fail("rename", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		// The rename happened but may not survive a crash. For a fresh file,
		// remove it so callers never observe a file of uncertain durability.
		// For an overwrite, leave it: the previous durable contents are
		// already gone, removing the replacement would destroy the only
		// remaining copy, and either generation surviving a real crash is a
		// complete, valid file.
		if !existed {
			_ = fsys.Remove(path)
		}
		return fmt.Errorf("faults: atomic write %s: syncing directory: %w", path, err)
	}
	return nil
}

// WriteAtomic is WriteAtomicFunc for contents already in memory.
func WriteAtomic(fsys FS, path string, data []byte) error {
	return WriteAtomicFunc(fsys, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// SweepTmp removes crashed-write temporary debris from dir: every file
// whose name ends in AtomicTmpSuffix and begins with one of the given
// prefixes (all such files when no prefix is given). It returns the names
// removed. Removal is safe by construction — a temp file's contents were
// never visible under a final name.
func SweepTmp(fsys FS, dir string, prefixes ...string) ([]string, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, name := range names {
		if !strings.HasSuffix(name, AtomicTmpSuffix) {
			continue
		}
		match := len(prefixes) == 0
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return removed, err
		}
		removed = append(removed, name)
	}
	return removed, nil
}
