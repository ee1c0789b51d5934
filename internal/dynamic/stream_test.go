package dynamic

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"socialrec/internal/dp"
	"socialrec/internal/faults"
	"socialrec/internal/release"
	"socialrec/internal/telemetry"
	"socialrec/internal/wal"
)

// streamEnv is one updater deployment: a WAL, a release store and an
// intent journal sharing one (optionally fault-injected) filesystem.
type streamEnv struct {
	t       *testing.T
	dir     string
	fsys    faults.FS
	log     *wal.Log
	store   *release.Store
	journal string
}

func newStreamEnv(t *testing.T, fsys faults.FS) *streamEnv {
	t.Helper()
	if fsys == nil {
		fsys = faults.OS{}
	}
	dir := t.TempDir()
	e := &streamEnv{
		t:       t,
		dir:     dir,
		fsys:    fsys,
		journal: filepath.Join(dir, "updater.journal"),
	}
	e.reopen()
	return e
}

// reopen simulates a restart: fresh Log and Store handles over the same
// directories (recovery runs in wal.Open and release.OpenStore).
func (e *streamEnv) reopen() {
	e.t.Helper()
	l, _, err := wal.Open(filepath.Join(e.dir, "wal"), wal.Options{
		FS:      e.fsys,
		Metrics: telemetry.NewRegistry(),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		e.t.Fatalf("opening wal: %v", err)
	}
	s, err := release.OpenStore(filepath.Join(e.dir, "store"), release.StoreOptions{
		FS:      e.fsys,
		Metrics: telemetry.NewRegistry(),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		e.t.Fatalf("opening store: %v", err)
	}
	e.log, e.store = l, s
}

func (e *streamEnv) config() UpdaterConfig {
	return UpdaterConfig{
		TotalBudget:    dp.Epsilon(2.0),
		PerRelease:     dp.Epsilon(0.5),
		Seed:           42,
		JournalPath:    e.journal,
		WAL:            e.log,
		Store:          e.store,
		DriftFullUsers: 0.95,
		FS:             e.fsys,
		Metrics:        telemetry.NewRegistry(),
	}
}

func (e *streamEnv) open() (*Updater, error) {
	return OpenUpdater(e.config())
}

func (e *streamEnv) mustOpen() *Updater {
	e.t.Helper()
	u, err := e.open()
	if err != nil {
		e.t.Fatalf("opening updater: %v", err)
	}
	return u
}

func (e *streamEnv) append(op wal.Op, a, b int64) {
	e.t.Helper()
	if _, err := e.log.Append(op, a, b); err != nil {
		e.t.Fatalf("append: %v", err)
	}
}

// seedPopulation logs two 6-cliques bridged by one edge, 4 items, and a
// couple of preference edges per user.
func (e *streamEnv) seedPopulation() {
	e.t.Helper()
	for u := 0; u < 12; u++ {
		e.append(wal.OpAddUser, int64(u), 0)
	}
	for i := 0; i < 4; i++ {
		e.append(wal.OpAddItem, int64(i), 0)
	}
	for c := 0; c < 2; c++ {
		base := int64(c * 6)
		for i := int64(0); i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				e.append(wal.OpAddSocial, base+i, base+j)
			}
		}
	}
	e.append(wal.OpAddSocial, 5, 6)
	for u := int64(0); u < 12; u++ {
		e.append(wal.OpAddPref, u, u%4)
		e.append(wal.OpAddPref, u, (u+1)%4)
	}
	if err := e.log.Sync(); err != nil {
		e.t.Fatal(err)
	}
}

// mutateBatch grows the population by one user tied into clique 0 and
// mutates some of that clique's preferences.
func (e *streamEnv) mutateBatch() {
	e.t.Helper()
	e.append(wal.OpAddUser, 12, 0)
	for v := int64(0); v < 4; v++ {
		e.append(wal.OpAddSocial, 12, v)
	}
	e.append(wal.OpAddPref, 12, 0)
	e.append(wal.OpAddPref, 0, 2)
	e.append(wal.OpDelPref, 1, 1)
	if err := e.log.Sync(); err != nil {
		e.t.Fatal(err)
	}
}

// storeBytes snapshots every artifact in the store directory.
func (e *streamEnv) storeBytes() map[string][]byte {
	e.t.Helper()
	dir := filepath.Join(e.dir, "store")
	names, err := os.ReadDir(dir)
	if err != nil {
		e.t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, de := range names {
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			e.t.Fatal(err)
		}
		out[de.Name()] = raw
	}
	return out
}

func sameBytes(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, raw := range a {
		other, ok := b[name]
		if !ok || string(raw) != string(other) {
			return false
		}
	}
	return true
}

func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestUpdaterSpentReadsWithoutLock: Spent and Remaining answer while an
// Advance holds the updater's lock, and read the spend race-free while a
// publish writes it.
func TestUpdaterSpentReadsWithoutLock(t *testing.T) {
	e := newStreamEnv(t, nil)
	e.seedPopulation()
	u := e.mustOpen()

	u.mu.Lock()
	read := make(chan dp.Epsilon, 1)
	go func() { read <- u.Spent() + u.Remaining() }()
	select {
	case got := <-read:
		if got != 2.0 {
			t.Errorf("spent + remaining = %v, want the 2.0 budget", float64(got))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Spent and Remaining waited on the updater's lock")
	}
	u.mu.Unlock()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := u.Spent(); s != 0 && s != 0.5 {
				t.Errorf("Spent read %v during the first publish", float64(s))
				return
			}
		}
	}()
	d, err := u.Advance()
	close(stop)
	wg.Wait()
	if err != nil || !d.Published {
		t.Fatalf("advance: %+v, %v", d, err)
	}
	if got := u.Spent(); got != 0.5 {
		t.Fatalf("spent = %v, want 0.5", float64(got))
	}
}

func TestUpdaterFullThenDelta(t *testing.T) {
	e := newStreamEnv(t, nil)
	e.seedPopulation()
	u := e.mustOpen()

	d, err := u.Advance()
	if err != nil {
		t.Fatalf("first advance: %v", err)
	}
	if !d.Published || d.Kind != "full" || d.Version != 1 {
		t.Fatalf("first advance: %+v", d)
	}
	if got := u.Spent(); got != 0.5 {
		t.Fatalf("spent = %v, want 0.5", float64(got))
	}

	// No new mutations: no spend.
	d, err = u.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if d.Published || d.Reason != "no new mutations" {
		t.Fatalf("idle advance published: %+v", d)
	}

	e.mutateBatch()
	d, err = u.Advance()
	if err != nil {
		t.Fatalf("delta advance: %v", err)
	}
	if !d.Published || d.Kind != "delta" || d.Version != 2 {
		t.Fatalf("delta advance: %+v", d)
	}
	if d.TouchedFraction <= 0 || d.TouchedFraction >= 0.95 {
		t.Fatalf("touched fraction %v out of delta range", d.TouchedFraction)
	}
	if got := u.Spent(); got != 1.0 {
		t.Fatalf("spent = %v, want 1.0", float64(got))
	}
	ln := u.Lineage()
	if ln.Full != 1 || len(ln.Deltas) != 1 || ln.Deltas[0] != 2 {
		t.Fatalf("lineage = %+v", ln)
	}

	// The store agrees: latest lineage is full 1 + delta 2, and the new
	// user is clustered with clique 0.
	rel, lnS, skipped, err := e.store.LoadLatestContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || lnS.Version() != 2 {
		t.Fatalf("store lineage %+v skipped %v", lnS, skipped)
	}
	if rel.Clusters.NumUsers() != 13 {
		t.Fatalf("served release covers %d users", rel.Clusters.NumUsers())
	}
	if rel.Clusters.Cluster(12) != rel.Clusters.Cluster(0) {
		t.Fatal("new user not clustered with clique 0")
	}
	if rel.Epsilon != 1.0 {
		t.Fatalf("composed epsilon = %v", rel.Epsilon)
	}
}

func TestUpdaterDriftSkipSpendsNothing(t *testing.T) {
	e := newStreamEnv(t, nil)
	e.seedPopulation()
	u := e.mustOpen()
	if _, err := u.Advance(); err != nil {
		t.Fatal(err)
	}
	// One social edge inside a clique changes no memberships and touches
	// no preferences... but the touched users' clusters are re-releasable.
	// Use a social no-op (re-add an existing edge's counterpart) with high
	// thresholds to exercise the skip path.
	cfgHigh := e.config()
	cfgHigh.DriftUsers = 0.99
	cfgHigh.DriftModularity = 10
	u2, err := OpenUpdater(cfgHigh)
	if err != nil {
		t.Fatal(err)
	}
	before := u2.Spent()
	e.append(wal.OpAddSocial, 0, 1) // already present: membership unchanged
	if err := e.log.Sync(); err != nil {
		t.Fatal(err)
	}
	d, err := u2.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if d.Published {
		t.Fatalf("below-threshold drift published: %+v", d)
	}
	if u2.Spent() != before {
		t.Fatalf("skip consumed budget: %v -> %v", float64(before), float64(u2.Spent()))
	}
	// The drift keeps accumulating: lowering the threshold publishes it.
	cfgLow := e.config()
	cfgLow.DriftUsers = 1e-9
	u3, err := OpenUpdater(cfgLow)
	if err != nil {
		t.Fatal(err)
	}
	d, err = u3.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Published || d.Kind != "delta" {
		t.Fatalf("accumulated drift not published: %+v", d)
	}
}

// TestUpdaterValidation: OpenUpdater refuses budgets that cannot be
// enforced and a deployment without a WAL, store or journal.
func TestUpdaterValidation(t *testing.T) {
	e := newStreamEnv(t, nil)
	for i, mutate := range []func(*UpdaterConfig){
		func(c *UpdaterConfig) { c.TotalBudget = 0 },
		func(c *UpdaterConfig) { c.TotalBudget = -1 },
		func(c *UpdaterConfig) { c.TotalBudget = dp.Inf },
		func(c *UpdaterConfig) { c.PerRelease = 0 },
		func(c *UpdaterConfig) { c.PerRelease = c.TotalBudget * 2 },
		func(c *UpdaterConfig) { c.PerRelease = dp.Inf },
		func(c *UpdaterConfig) { c.WAL = nil },
		func(c *UpdaterConfig) { c.Store = nil },
		func(c *UpdaterConfig) { c.JournalPath = "" },
	} {
		cfg := e.config()
		mutate(&cfg)
		if _, err := OpenUpdater(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestUpdaterBudgetExhaustion: the updater refuses releases past the total
// budget, before journaling anything.
func TestUpdaterBudgetExhaustion(t *testing.T) {
	e := newStreamEnv(t, nil)
	e.seedPopulation()
	cfg := e.config()
	cfg.TotalBudget = dp.Epsilon(0.75) // one 0.5 release fits, two don't
	cfg.DriftUsers = 1e-9
	u, err := OpenUpdater(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Advance(); err != nil {
		t.Fatal(err)
	}
	e.mutateBatch()
	if _, err := u.Advance(); err == nil {
		t.Fatal("over-budget release accepted")
	}
	if got := u.Spent(); got != 0.5 {
		t.Fatalf("refused release changed spend: %v", float64(got))
	}
	if u.CanPublish() {
		t.Fatal("CanPublish true with insufficient remaining budget")
	}
}

// TestUpdaterRefusesCorruptIntent: a truncated, bit-flipped or wrong-magic
// intent journal stops OpenUpdater. Guessing the spend instead could
// re-spend ε that an earlier publish already exposed.
func TestUpdaterRefusesCorruptIntent(t *testing.T) {
	e := newStreamEnv(t, nil)
	e.seedPopulation()
	if _, err := e.mustOpen().Advance(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(e.journal)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(intentMagic)+9] ^= 0x01 // inside the spend
	for name, data := range map[string][]byte{
		"truncated":   good[:len(good)-1],
		"bit-flipped": flipped,
		"wrong magic": append([]byte("SOCUPD01"), good[len(intentMagic):]...),
		"empty":       {},
	} {
		if err := os.WriteFile(e.journal, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e.reopen()
		if _, err := e.open(); !errors.Is(err, errIntentCorrupt) {
			t.Errorf("%s journal: OpenUpdater error = %v, want errIntentCorrupt", name, err)
		}
	}
	if err := os.WriteFile(e.journal, good, 0o644); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	if u := e.mustOpen(); u.Spent() != 0.5 || u.Releases() != 1 {
		t.Fatalf("restored journal: spent %v over %d releases", float64(u.Spent()), u.Releases())
	}
}

// TestUpdaterCrashRecompute pins the exactly-once contract: a crash after
// the intent is journaled but before the artifact lands is finished on
// reopen by recomputation, yielding a byte-identical artifact and charging
// ε once.
func TestUpdaterCrashRecompute(t *testing.T) {
	// Reference run, no faults.
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
	wantSpent := uRef.Spent()

	// Faulted run: the delta publish's rename dies, so the journal counts
	// a release the store never received.
	reg := faults.New(3)
	e := newStreamEnv(t, faults.NewFS(faults.OS{}, reg))
	e.seedPopulation()
	u := e.mustOpen()
	if _, err := u.Advance(); err != nil {
		t.Fatal(err)
	}
	e.mutateBatch()
	// First rename after arming is the intent journal's (which must
	// succeed for this scenario); the second is the delta artifact's.
	reg.Arm(faults.PointFSRename, faults.Plan{After: 1, Err: faults.ErrInjected})
	if _, err := u.Advance(); err == nil {
		t.Fatal("advance survived injected rename failure")
	} else if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("unexpected failure: %v", err)
	}
	if reg.Fired(faults.PointFSRename) == 0 {
		t.Fatal("fault never fired")
	}
	// The poisoned updater refuses further publishes.
	if _, err := u.Advance(); err == nil {
		t.Fatal("poisoned updater accepted another advance")
	}
	reg.DisarmAll()

	// Restart: recovery finishes the journaled publish exactly once.
	e.reopen()
	u2 := e.mustOpen()
	if got := u2.Spent(); got != wantSpent {
		t.Fatalf("spent after recovery = %v, want %v", float64(got), float64(wantSpent))
	}
	if got := e.storeBytes(); !sameBytes(want, got) {
		t.Fatalf("recomputed artifacts differ from reference: %v vs %v", sortedNames(got), sortedNames(want))
	}
	if d, err := u2.Advance(); err != nil || d.Published {
		t.Fatalf("post-recovery advance republished: %+v err %v", d, err)
	}
}

// TestUpdaterPublishFaultSweep arms every filesystem fault point in turn,
// at every firing offset, across the publish path — the journal write, the
// accountant charge, the artifact persist — then "restarts" and verifies
// the spend was never under-counted and recovery converges on the exact
// reference state. This is the journal-write→accountant-charge crash
// window test: no interleaving of failures may let Σε drop below the
// releases exposed.
func TestUpdaterPublishFaultSweep(t *testing.T) {
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
	wantSpent := uRef.Spent()

	points := []faults.Point{
		faults.PointFSOpen, faults.PointFSCreate, faults.PointFSRead,
		faults.PointFSWrite, faults.PointFSSync, faults.PointFSClose,
		faults.PointFSRename, faults.PointFSRemove, faults.PointFSReadDir,
		faults.PointFSSyncDir,
	}
	for _, p := range points {
		for after := uint64(0); after < 64; after++ {
			reg := faults.New(int64(after) + 1)
			fsys := faults.NewFS(faults.OS{}, reg)
			e := newStreamEnv(t, fsys)
			e.seedPopulation()
			u := e.mustOpen()
			if _, err := u.Advance(); err != nil {
				t.Fatalf("%s/%d: clean first advance failed: %v", p, after, err)
			}
			e.mutateBatch()

			reg.Arm(p, faults.Plan{After: after, Err: faults.ErrInjected})
			_, aerr := u.Advance()
			fired := reg.Fired(p) > 0
			reg.DisarmAll()

			// Restart and verify, regardless of where (or whether) the
			// fault hit.
			e.reopen()
			u2, err := e.open()
			if err != nil {
				t.Fatalf("%s/%d: reopen after crash: %v", p, after, err)
			}
			// Spend is never under-counted: every artifact the store
			// exposes is covered by journaled ε.
			arts := 0
			for _, k := range []release.Kind{release.Fulls, release.Deltas} {
				if vs, err := e.store.Versions(k); err == nil {
					arts += len(vs)
				}
			}
			if got := float64(u2.Spent()); got < float64(arts)*0.5-1e-12 {
				t.Fatalf("%s/%d: spend %v under-counts %d exposed artifacts", p, after, got, arts)
			}
			// Recovery converges: one more advance reaches the reference
			// state exactly, with ε charged exactly once per release.
			if _, err := u2.Advance(); err != nil {
				t.Fatalf("%s/%d: post-recovery advance: %v", p, after, err)
			}
			if got := u2.Spent(); got != wantSpent {
				t.Fatalf("%s/%d: spent %v, want %v (fired=%v, advance err=%v)",
					p, after, float64(got), float64(wantSpent), fired, aerr)
			}
			if got := e.storeBytes(); !sameBytes(want, got) {
				t.Fatalf("%s/%d: store diverged from reference: %v vs %v",
					p, after, sortedNames(got), sortedNames(want))
			}
			if !fired {
				// The plan never triggered at this offset; later offsets
				// won't either.
				break
			}
		}
	}
}
