package dynamic

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"socialrec/internal/dp"
	"socialrec/internal/faults"
	"socialrec/internal/wal"
)

// addUser logs one new user, tied into clique 0 and holding one
// preference edge. Successive calls must pass successive dense ids
// (12, 13, ... after seedPopulation).
func (e *streamEnv) addUser(id int64) {
	e.t.Helper()
	e.append(wal.OpAddUser, id, 0)
	for v := int64(0); v < 4; v++ {
		e.append(wal.OpAddSocial, id, v)
	}
	e.append(wal.OpAddPref, id, id%4)
	if err := e.log.Sync(); err != nil {
		e.t.Fatal(err)
	}
}

// budgetConfig is the streamEnv deployment with a 1.2 lifetime budget at
// 0.4 per release, publishing on any drift.
func (e *streamEnv) budgetConfig() UpdaterConfig {
	cfg := e.config()
	cfg.TotalBudget = dp.Epsilon(1.2)
	cfg.PerRelease = dp.Epsilon(0.4)
	cfg.DriftUsers = 1e-9
	return cfg
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "updater.journal")
	want := intentState{Releases: 3, Spent: 1.2, PrevSeq: 40, Seq: 57, Version: 4, Kind: intentDelta, Base: 3}
	if err := writeIntent(faults.OS{}, path, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, ok, err := readIntent(faults.OS{}, path)
	if err != nil || !ok {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestJournalMissingFileIsFreshStart(t *testing.T) {
	_, ok, err := readIntent(faults.OS{}, filepath.Join(t.TempDir(), "absent"))
	if err != nil || ok {
		t.Fatalf("missing journal: ok=%v err=%v, want false, nil", ok, err)
	}
	u := newStreamEnv(t, nil).mustOpen()
	if u.Spent() != 0 || u.Releases() != 0 {
		t.Fatalf("fresh updater: spent %v over %d releases", float64(u.Spent()), u.Releases())
	}
}

// TestJournalCorruptionDetected: readIntent refuses a frame whose CRC
// fails and, with a valid CRC, contents no publish could have journaled.
// An updater must refuse to start on either rather than risk re-spending.
func TestJournalCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "updater.journal")
	if err := writeIntent(faults.OS{}, path, intentState{Releases: 1, Spent: 0.4, Seq: 9, Version: 1, Kind: intentFull}); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(intentMagic)+10] ^= 0xff // inside the spend field
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readIntent(faults.OS{}, path); !errors.Is(err, errIntentCorrupt) {
		t.Fatalf("flipped spend: err = %v, want errIntentCorrupt", err)
	}

	for name, st := range map[string]intentState{
		"NaN spend":        {Releases: 1, Spent: math.NaN(), Seq: 9, Kind: intentFull},
		"infinite spend":   {Releases: 1, Spent: math.Inf(1), Seq: 9, Kind: intentFull},
		"negative spend":   {Releases: 1, Spent: -0.4, Seq: 9, Kind: intentFull},
		"unknown kind":     {Releases: 1, Spent: 0.4, Seq: 9, Kind: intentDelta + 1},
		"seq before prior": {Releases: 2, Spent: 0.8, PrevSeq: 9, Seq: 8, Kind: intentDelta},
	} {
		if err := writeIntent(faults.OS{}, path, st); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if _, _, err := readIntent(faults.OS{}, path); !errors.Is(err, errIntentCorrupt) {
			t.Errorf("%s: err = %v, want errIntentCorrupt", name, err)
		}
	}

	e := newStreamEnv(t, nil)
	if err := os.WriteFile(e.journal, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.open(); !errors.Is(err, errIntentCorrupt) {
		t.Fatalf("OpenUpdater on a corrupt journal: err = %v, want errIntentCorrupt", err)
	}
}

// TestManagerBudgetEnforcement: the Updater manages a lifetime budget.
// Two 0.4 releases fit in 1.0; the third is refused before anything is
// journaled.
func TestManagerBudgetEnforcement(t *testing.T) {
	e := newStreamEnv(t, nil)
	e.seedPopulation()
	cfg := e.budgetConfig()
	cfg.TotalBudget = dp.Epsilon(1.0)
	u, err := OpenUpdater(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !u.CanPublish() {
			t.Fatalf("release %d: CanPublish = false", i)
		}
		if d, err := u.Advance(); err != nil || !d.Published {
			t.Fatalf("release %d: %+v err %v", i, d, err)
		}
		e.addUser(12 + int64(i))
	}
	journal, err := os.ReadFile(e.journal)
	if err != nil {
		t.Fatal(err)
	}
	if u.CanPublish() {
		t.Error("third release should not fit in the budget")
	}
	if _, err := u.Advance(); err == nil {
		t.Error("over-budget publish should fail")
	}
	if after, err := os.ReadFile(e.journal); err != nil || string(after) != string(journal) {
		t.Errorf("refused publish rewrote the journal (err %v)", err)
	}
	if u.Releases() != 2 {
		t.Errorf("releases = %d, want 2", u.Releases())
	}
	if got := float64(u.Spent()); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("spent = %v, want 0.8", got)
	}
	if got := float64(u.Remaining()); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("remaining = %v, want 0.2", got)
	}
}

// TestManagerRestartCannotRespend is the crash/restart drill: publish
// twice, "crash" (drop the updater), restart from the same journal, and
// verify the restarted updater sees the prior spend and refuses releases
// the original could not have afforded either.
func TestManagerRestartCannotRespend(t *testing.T) {
	e := newStreamEnv(t, nil)
	e.seedPopulation()
	u1, err := OpenUpdater(e.budgetConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if d, err := u1.Advance(); err != nil || !d.Published {
			t.Fatalf("publish %d: %+v err %v", i+1, d, err)
		}
		e.addUser(12 + int64(i))
	}
	if got := float64(u1.Spent()); got != 0.8 {
		t.Fatalf("spent = %v, want 0.8", got)
	}

	// Crash: u1 is abandoned; a new process recovers from the journal.
	e.reopen()
	u2, err := OpenUpdater(e.budgetConfig())
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := float64(u2.Spent()); got != 0.8 {
		t.Fatalf("recovered spent = %v, want 0.8 (restart must not reset the ledger)", got)
	}
	if u2.Releases() != 2 {
		t.Fatalf("recovered releases = %d, want 2", u2.Releases())
	}
	// Budget 1.2 at 0.4/release: exactly one release remains after restart.
	if !u2.CanPublish() {
		t.Fatal("one release should still fit")
	}
	if d, err := u2.Advance(); err != nil || !d.Published {
		t.Fatalf("publish 3 after restart: %+v err %v", d, err)
	}
	e.addUser(14)
	if _, err := u2.Advance(); err == nil {
		t.Fatal("publish 4 exceeded the lifetime budget: the restart re-spent ε")
	}

	// A third start still sees the full lifetime spend.
	e.reopen()
	u3, err := OpenUpdater(e.budgetConfig())
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if got := float64(u3.Spent()); math.Abs(got-1.2) > 1e-9 {
		t.Fatalf("final recovered spent = %v, want 1.2", got)
	}
	if u3.CanPublish() {
		t.Fatal("exhausted budget must survive restarts")
	}
}

// TestManagerCrashDuringJournalWrite fails the intent journal write at
// every fs operation and verifies the conservative invariant: the failed
// publish neither goes live nor charges memory, and after a restart the
// durable spend covers every release that went live, never resets, and
// converges on the fault-free run.
func TestManagerCrashDuringJournalWrite(t *testing.T) {
	ref := newStreamEnv(t, nil)
	ref.seedPopulation()
	uRef := ref.mustOpen()
	if _, err := uRef.Advance(); err != nil {
		t.Fatal(err)
	}
	ref.mutateBatch()
	if _, err := uRef.Advance(); err != nil {
		t.Fatal(err)
	}
	want := ref.storeBytes()

	for _, point := range []faults.Point{
		faults.PointFSCreate, faults.PointFSWrite, faults.PointFSSync,
		faults.PointFSClose, faults.PointFSRename, faults.PointFSSyncDir,
	} {
		t.Run(string(point), func(t *testing.T) {
			// Only the journal goes through the faulty filesystem; the
			// WAL and store stay healthy.
			reg := faults.New(99)
			e := newStreamEnv(t, nil)
			e.seedPopulation()
			cfg := e.config()
			cfg.FS = faults.NewFS(faults.OS{}, reg)
			u, err := OpenUpdater(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := u.Advance(); err != nil {
				t.Fatal(err)
			}
			e.mutateBatch()
			published := e.storeBytes()

			// Times 2: the atomic-write helper probes the final path first,
			// and the probe's close must not absorb an armed fs.close.
			reg.Arm(point, faults.Plan{Times: 2})
			if _, err := u.Advance(); err == nil {
				t.Fatal("publish should fail when the journal cannot be written")
			}
			if reg.Fired(point) == 0 {
				t.Fatal("fault never fired")
			}
			reg.DisarmAll()
			if got := float64(u.Spent()); got != 0.5 {
				t.Fatalf("in-memory spent = %v after failed publish, want 0.5", got)
			}
			if got := e.storeBytes(); !sameBytes(published, got) {
				t.Fatalf("failed publish changed the store: %v vs %v", sortedNames(got), sortedNames(published))
			}

			// Restart: the journal holds at least release 1. Release 2 may
			// be journaled already (its rename landed before the directory
			// sync failed); recovery then finishes it instead of charging
			// it again.
			e.reopen()
			u2, err := e.open()
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			if got := float64(u2.Spent()); got < 0.5 {
				t.Fatalf("recovered spent = %v, want >= 0.5", got)
			}
			if _, err := u2.Advance(); err != nil {
				t.Fatalf("post-restart advance: %v", err)
			}
			if got := float64(u2.Spent()); got != 1.0 {
				t.Fatalf("spent = %v after convergence, want 1.0", got)
			}
			if got := e.storeBytes(); !sameBytes(want, got) {
				t.Fatalf("store diverged from reference: %v vs %v", sortedNames(got), sortedNames(want))
			}
		})
	}
}
