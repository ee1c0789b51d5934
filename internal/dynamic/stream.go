// Package dynamic extends the framework toward the paper's §7 future-work
// item of recommending over dynamic graphs. The paper's Algorithm 1 covers
// a single static snapshot; when the graphs evolve and the recommender
// re-releases, the releases compose. Because preference edges persist
// across releases, the safe (and tight, absent further assumptions)
// accounting is sequential composition (Theorem 2): k releases at ε_r each
// consume k·ε_r of a total budget.
//
// Updater operationalizes that: it owns a total preference-privacy budget,
// charges ε_r per publish, and refuses the publish that would exceed the
// budget — turning the paper's theoretical caveat into an enforced
// invariant. Re-clustering is free: the clustering reads only the public
// social graph.
package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"socialrec/internal/community"
	"socialrec/internal/dp"
	"socialrec/internal/faults"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/release"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
	"socialrec/internal/wal"
)

// Updater consumes a mutation WAL, repairs the community structure
// incrementally around the touched vertices, and publishes into a
// release.Store — a cheap delta release (only the changed clusters
// re-noised) when drift is small, a full generation when drift is large or
// the delta chain grows long. A drift threshold decides when a re-release
// is worth its ε at all.
//
// Crash safety is the intent journal's (intent.go): spend is journaled
// before it is charged or exposed, and a publish that crashes mid-flight
// is finished deterministically on the next OpenUpdater — same WAL prefix,
// same derived noise seed, byte-identical artifact, ε charged exactly
// once.
//
// An Updater is the sole writer of its store and journal; methods are
// serialized internally but distinct Updaters must not share those paths.
// The journaled Seq doubles as the consumer's WAL replay mark.
type Updater struct {
	cfg  UpdaterConfig
	fsys faults.FS
	logf func(format string, args ...any)
	// spent holds the float64 bits of the journaled lifetime spend. Writes
	// happen under mu, right after the journal write; Spent and Remaining
	// read it without mu, so they never wait on an in-flight Advance.
	spent atomic.Uint64

	mu         sync.Mutex
	st         *graphState
	appliedSeq uint64 // WAL sequence applied into st
	touched    map[int32]struct{}
	releases   uint64 // journaled publishes
	pubSeq     uint64 // WAL sequence the published lineage covers
	deltaChain int
	published  *release.Release // served artifact (delta chain applied); nil before first publish
	lineage    release.Lineage
	broken     error // set when a journaled intent may not have persisted

	publishes  *telemetry.Counter
	deltaPubs  *telemetry.Counter
	skippedLow *telemetry.Counter
	recomputes *telemetry.Counter
}

// UpdaterConfig assembles an Updater.
type UpdaterConfig struct {
	// TotalBudget is the lifetime ε for preference-edge privacy, and
	// PerRelease the ε each publish (full or delta) consumes under
	// sequential composition.
	TotalBudget dp.Epsilon
	PerRelease  dp.Epsilon
	// Measure is the social-similarity measure; nil selects Common
	// Neighbors. Recorded in each artifact.
	Measure similarity.Measure
	// LouvainRuns is the best-of count for full releases; 0 selects 10.
	LouvainRuns int
	// Seed derives per-release clustering orders and noise streams
	// through release.Recipe's seed rule, keyed by the journaled release
	// index, which is what makes crashed publishes recomputable
	// bit-for-bit.
	Seed int64
	// JournalPath persists the intent journal. Required: an updater
	// without durable spend accounting could re-spend ε after a crash.
	JournalPath string
	// WAL is the mutation log to consume. Required.
	WAL *wal.Log
	// Store receives the published artifacts. Required.
	Store *release.Store
	// BaseSocial and BasePrefs are the optional pre-WAL snapshot the log's
	// mutations apply on top of; nil means the population starts empty and
	// is built entirely from OpAddUser/OpAddItem records.
	BaseSocial *graph.Social
	BasePrefs  *graph.Preference
	// DriftUsers is the fraction of users that must be touched (membership
	// changed, or preference edges mutated) before a release is worth its
	// ε; 0 selects 0.01.
	DriftUsers float64
	// DriftModularity is the modularity gain of the repaired clustering
	// over the published one that alone justifies a release; 0 selects
	// 0.02.
	DriftModularity float64
	// DriftFullUsers is the touched fraction at which a full generation
	// replaces a delta; 0 selects 0.5.
	DriftFullUsers float64
	// FullEvery bounds the delta chain: after this many deltas the next
	// publish is a full generation, bounding replay cost and blast radius
	// of a corrupt link; 0 selects 8.
	FullEvery int
	// FS abstracts the filesystem for the journal; nil selects the real
	// one. The WAL and Store carry their own.
	FS faults.FS
	// Metrics receives the updater's counters; nil selects
	// telemetry.Default().
	Metrics *telemetry.Registry
	// Logf receives recovery and decision notices; nil silences them.
	Logf func(format string, args ...any)
}

// Decision reports what Advance did and why.
type Decision struct {
	// Published is false when drift stayed below threshold (no ε spent).
	Published bool
	// Kind is "full" or "delta" when Published.
	Kind string
	// Version is the store version published.
	Version uint64
	// Seq is the WAL sequence the decision covers.
	Seq uint64
	// TouchedFraction is the fraction of users in re-released clusters.
	TouchedFraction float64
	// ModularityGain is the repaired clustering's modularity minus the
	// published one's, both on the current graph.
	ModularityGain float64
	// Reason explains the decision in operator terms.
	Reason string
}

// graphState is the mutable adjacency the WAL replays into. Preference
// adjacency is the private data; it never leaves this process except
// through the DP mechanism.
type graphState struct {
	items  int
	social []map[int32]struct{}
	prefs  []map[int32]struct{}
}

func newGraphState(social *graph.Social, prefs *graph.Preference) (*graphState, error) {
	st := &graphState{}
	if social == nil {
		if prefs != nil {
			return nil, fmt.Errorf("dynamic: base preference graph without base social graph")
		}
		return st, nil
	}
	n := social.NumUsers()
	if prefs != nil && prefs.NumUsers() != n {
		return nil, fmt.Errorf("dynamic: base snapshot has %d social users but %d preference users",
			n, prefs.NumUsers())
	}
	st.social = make([]map[int32]struct{}, n)
	st.prefs = make([]map[int32]struct{}, n)
	for u := 0; u < n; u++ {
		st.social[u] = make(map[int32]struct{})
		st.prefs[u] = make(map[int32]struct{})
		for _, v := range social.Neighbors(u) {
			st.social[u][v] = struct{}{}
		}
		if prefs != nil {
			for _, it := range prefs.Items(u) {
				st.prefs[u][it] = struct{}{}
			}
		}
	}
	if prefs != nil {
		st.items = prefs.NumItems()
	}
	return st, nil
}

func (st *graphState) users() int { return len(st.social) }

// apply folds one WAL record into the adjacency and reports which users it
// touched. Errors name the sequence number and operation only — record
// operands are raw adjacency and must never be echoed.
func (st *graphState) apply(rec wal.Record) ([]int32, error) {
	bad := func() error {
		return fmt.Errorf("dynamic: wal record %d (%s): operand out of range", rec.Seq, rec.Op)
	}
	switch rec.Op {
	case wal.OpAddUser:
		if rec.A != int64(st.users()) {
			return nil, fmt.Errorf("dynamic: wal record %d (%s): non-dense user id", rec.Seq, rec.Op)
		}
		st.social = append(st.social, make(map[int32]struct{}))
		st.prefs = append(st.prefs, make(map[int32]struct{}))
		return []int32{int32(rec.A)}, nil
	case wal.OpAddItem:
		if rec.A != int64(st.items) {
			return nil, fmt.Errorf("dynamic: wal record %d (%s): non-dense item id", rec.Seq, rec.Op)
		}
		st.items++
		return nil, nil
	case wal.OpAddSocial, wal.OpDelSocial:
		a, b := rec.A, rec.B
		if a < 0 || b < 0 || a >= int64(st.users()) || b >= int64(st.users()) || a == b {
			return nil, bad()
		}
		if rec.Op == wal.OpAddSocial {
			st.social[a][int32(b)] = struct{}{}
			st.social[b][int32(a)] = struct{}{}
		} else {
			delete(st.social[a], int32(b))
			delete(st.social[b], int32(a))
		}
		return []int32{int32(a), int32(b)}, nil
	case wal.OpAddPref, wal.OpDelPref:
		a, b := rec.A, rec.B
		if a < 0 || b < 0 || a >= int64(st.users()) || b >= int64(st.items) {
			return nil, bad()
		}
		if rec.Op == wal.OpAddPref {
			st.prefs[a][int32(b)] = struct{}{}
		} else {
			delete(st.prefs[a], int32(b))
		}
		return []int32{int32(a)}, nil
	}
	return nil, fmt.Errorf("dynamic: wal record %d: unknown op", rec.Seq)
}

// snapshot freezes the adjacency into the immutable graph types. The
// builders sort adjacency, so snapshots are deterministic regardless of
// map iteration order.
func (st *graphState) snapshot() (*graph.Social, *graph.Preference, error) {
	n := st.users()
	sb := graph.NewSocialBuilder(n)
	pb := graph.NewPreferenceBuilder(n, st.items)
	for u := 0; u < n; u++ {
		for v := range st.social[u] {
			if int32(u) < v {
				if err := sb.AddEdge(u, int(v)); err != nil {
					return nil, nil, err
				}
			}
		}
		for it := range st.prefs[u] {
			if err := pb.AddEdge(u, int(it)); err != nil {
				return nil, nil, err
			}
		}
	}
	return sb.Build(), pb.Build(), nil
}

// OpenUpdater validates the configuration, recovers the journaled spend,
// replays the WAL into graph state, and — when the journal holds a pending
// intent whose artifact never landed — finishes that publish by
// deterministic recomputation before returning.
func OpenUpdater(cfg UpdaterConfig) (*Updater, error) {
	if err := cfg.TotalBudget.Validate(); err != nil {
		return nil, fmt.Errorf("dynamic: total budget: %w", err)
	}
	if cfg.TotalBudget.IsInf() {
		return nil, fmt.Errorf("dynamic: total budget must be finite (an infinite budget needs no updater)")
	}
	if err := cfg.PerRelease.Validate(); err != nil {
		return nil, fmt.Errorf("dynamic: per-release budget: %w", err)
	}
	if cfg.PerRelease.IsInf() || cfg.PerRelease > cfg.TotalBudget {
		return nil, fmt.Errorf("dynamic: per-release budget %v exceeds total %v",
			float64(cfg.PerRelease), float64(cfg.TotalBudget))
	}
	if cfg.WAL == nil || cfg.Store == nil {
		return nil, fmt.Errorf("dynamic: updater requires a WAL and a release store")
	}
	if cfg.JournalPath == "" {
		return nil, fmt.Errorf("dynamic: updater requires a journal path (spend accounting must survive crashes)")
	}
	if cfg.Measure == nil {
		cfg.Measure = similarity.CommonNeighbors{}
	}
	if cfg.DriftUsers <= 0 {
		cfg.DriftUsers = 0.01
	}
	if cfg.DriftModularity <= 0 {
		cfg.DriftModularity = 0.02
	}
	if cfg.DriftFullUsers <= 0 {
		cfg.DriftFullUsers = 0.5
	}
	if cfg.FullEvery <= 0 {
		cfg.FullEvery = 8
	}
	if cfg.FS == nil {
		cfg.FS = faults.OS{}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	u := &Updater{
		cfg:     cfg,
		fsys:    cfg.FS,
		logf:    logf,
		touched: make(map[int32]struct{}),
		publishes: reg.NewCounter("updater_publishes_total",
			"streaming releases published (full and delta)"),
		deltaPubs: reg.NewCounter("updater_delta_publishes_total",
			"streaming releases published as deltas"),
		skippedLow: reg.NewCounter("updater_drift_skips_total",
			"advances that spent no budget because drift stayed below threshold"),
		recomputes: reg.NewCounter("updater_recomputed_publishes_total",
			"journaled publishes finished by recomputation after a crash"),
	}
	st, err := newGraphState(cfg.BaseSocial, cfg.BasePrefs)
	if err != nil {
		return nil, err
	}
	u.st = st

	intent, haveIntent, err := readIntent(u.fsys, cfg.JournalPath)
	if err != nil {
		return nil, fmt.Errorf("dynamic: recovering updater journal: %w", err)
	}
	if haveIntent {
		// Recover the durable spend first; everything after can fail
		// without the accounting regressing.
		u.spent.Store(math.Float64bits(intent.Spent))
		u.releases = intent.Releases
	}

	// Recover the served lineage from the store.
	rel, lineage, skipped, lerr := cfg.Store.LoadLatestContext(context.Background())
	for _, sk := range skipped {
		logf("dynamic: updater: store skipped %s: %v", sk.Name, sk.Err)
	}
	if lerr == nil {
		u.published = rel
		u.lineage = lineage
		u.deltaChain = len(lineage.Deltas)
	} else if !errors.Is(lerr, release.ErrStoreEmpty) {
		return nil, fmt.Errorf("dynamic: recovering release store: %w", lerr)
	}

	pending := haveIntent && intent.Kind != intentNone && u.lineage.Version() < intent.Version
	if pending {
		// The crash hit between the journal write and the artifact
		// landing. Rebuild graph state through exactly the journaled WAL
		// prefix (touched set from (PrevSeq, Seq]) and finish the publish.
		u.pubSeq = intent.PrevSeq
		if err := u.replay(intent.Seq); err != nil {
			return nil, fmt.Errorf("dynamic: replaying wal for crashed publish: %w", err)
		}
		if u.appliedSeq < intent.Seq {
			return nil, fmt.Errorf("dynamic: wal ends at %d but journaled publish covers %d (log truncated beyond its release?)",
				u.appliedSeq, intent.Seq)
		}
		if err := u.finishPublish(intent); err != nil {
			return nil, fmt.Errorf("dynamic: finishing crashed publish: %w", err)
		}
		u.recomputes.Inc()
		logf("dynamic: updater: finished crashed %s publish as version %d (wal seq %d)",
			intent.Kind, intent.Version, intent.Seq)
	} else {
		u.pubSeq = intent.Seq // zero when no journal
	}
	// Fold the remainder of the log into live state.
	if err := u.replay(math.MaxUint64); err != nil {
		return nil, fmt.Errorf("dynamic: replaying wal: %w", err)
	}
	return u, nil
}

// replay applies WAL records with sequence in (appliedSeq, through] to the
// graph state, collecting touched users for records past u.pubSeq. It is
// idempotent by sequence: already-applied records are skipped.
func (u *Updater) replay(through uint64) error {
	return u.cfg.WAL.Replay(u.appliedSeq, func(rec wal.Record) error {
		if rec.Seq > through {
			return wal.ErrStopReplay
		}
		touched, err := u.st.apply(rec)
		if err != nil {
			return err
		}
		u.appliedSeq = rec.Seq
		if rec.Seq > u.pubSeq {
			for _, t := range touched {
				u.touched[t] = struct{}{}
			}
		}
		return nil
	})
}

// Spent reports the privacy budget consumed (journaled) so far. Every
// publish shares the one preference graph, so spends compose sequentially
// and add up.
func (u *Updater) Spent() dp.Epsilon {
	return dp.Epsilon(math.Float64frombits(u.spent.Load()))
}

// Remaining reports the unspent budget.
func (u *Updater) Remaining() dp.Epsilon {
	r := float64(u.cfg.TotalBudget) - float64(u.Spent())
	if r < 0 {
		r = 0
	}
	return dp.Epsilon(r)
}

// Releases reports how many publishes have been journaled.
func (u *Updater) Releases() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return int(u.releases)
}

// Lineage reports the served artifact chain.
func (u *Updater) Lineage() release.Lineage {
	u.mu.Lock()
	defer u.mu.Unlock()
	ln := u.lineage
	ln.Deltas = append([]uint64(nil), u.lineage.Deltas...)
	return ln
}

// CanPublish reports whether another release fits in the budget.
func (u *Updater) CanPublish() bool {
	return float64(u.Remaining()) >= float64(u.cfg.PerRelease)-1e-12
}

// Advance consumes any new WAL records and decides whether the accumulated
// drift is worth a release. When it is, the publish follows the
// journal-before-spend discipline; when it is not, no ε is consumed and
// the drift keeps accumulating for the next call.
func (u *Updater) Advance() (Decision, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.broken != nil {
		return Decision{}, fmt.Errorf("dynamic: updater needs reopen after failed publish: %w", u.broken)
	}
	if err := u.replay(math.MaxUint64); err != nil {
		return Decision{}, err
	}
	d := Decision{Seq: u.appliedSeq}
	if u.appliedSeq == u.pubSeq && u.published != nil {
		d.Reason = "no new mutations"
		u.skippedLow.Inc()
		return d, nil
	}
	if u.st.users() == 0 {
		d.Reason = "population empty"
		u.skippedLow.Inc()
		return d, nil
	}
	social, prefs, err := u.st.snapshot()
	if err != nil {
		return Decision{}, err
	}

	kind := intentFull
	var plan *deltaPlan
	if u.published != nil {
		plan, err = u.planDelta(social, prefs)
		if err != nil {
			return Decision{}, err
		}
		d.TouchedFraction = plan.freshFraction
		d.ModularityGain = plan.modGain
		if plan.freshFraction < u.cfg.DriftUsers && plan.modGain < u.cfg.DriftModularity {
			d.Reason = fmt.Sprintf("drift below threshold (touched %.3f < %.3f, modularity gain %.4f < %.4f)",
				plan.freshFraction, u.cfg.DriftUsers, plan.modGain, u.cfg.DriftModularity)
			u.skippedLow.Inc()
			return d, nil
		}
		switch {
		case u.deltaChain >= u.cfg.FullEvery:
			d.Reason = fmt.Sprintf("delta chain at limit %d, publishing full", u.cfg.FullEvery)
		case plan.freshFraction >= u.cfg.DriftFullUsers:
			d.Reason = fmt.Sprintf("touched fraction %.3f >= %.3f, publishing full",
				plan.freshFraction, u.cfg.DriftFullUsers)
		default:
			kind = intentDelta
			d.Reason = fmt.Sprintf("touched fraction %.3f, publishing delta", plan.freshFraction)
		}
	} else {
		d.TouchedFraction = 1
		d.Reason = "first release, publishing full"
	}
	if !u.canPublishLocked() {
		return d, fmt.Errorf("dynamic: remaining budget %v cannot cover a release of %v",
			float64(u.Remaining()), float64(u.cfg.PerRelease))
	}

	next, err := u.cfg.Store.NextVersion()
	if err != nil {
		return Decision{}, err
	}
	intent := intentState{
		Releases: u.releases + 1,
		Spent:    float64(u.Spent()) + float64(u.cfg.PerRelease),
		PrevSeq:  u.pubSeq,
		Seq:      u.appliedSeq,
		Version:  next,
		Kind:     kind,
		Base:     u.lineage.Version(),
	}
	// Journal durably BEFORE counting the spend or persisting: a crash
	// from here on counts the release as spent even if it never lands, and
	// OpenUpdater finishes it by recomputation. Under-counting is never
	// possible.
	if err := writeIntent(u.fsys, u.cfg.JournalPath, intent); err != nil {
		return Decision{}, fmt.Errorf("dynamic: journaling publish intent: %w", err)
	}
	u.releases = intent.Releases
	u.spent.Store(math.Float64bits(intent.Spent))
	if err := u.finishPublish(intent); err != nil {
		// The ε is journaled but the artifact did not land. In-process
		// retry would need a fresh intent (double-counting), so the
		// updater poisons itself; OpenUpdater finishes this publish
		// exactly once.
		u.broken = err
		return Decision{}, err
	}
	d.Published = true
	d.Kind = kind.String()
	d.Version = intent.Version
	return d, nil
}

func (u *Updater) canPublishLocked() bool {
	r := float64(u.cfg.TotalBudget) - float64(u.Spent())
	return r >= float64(u.cfg.PerRelease)-1e-12
}

// finishPublish computes and persists the artifact a journaled intent
// describes, then advances the served lineage. It is the single publish
// path for both live Advance calls and post-crash recomputation, which is
// what makes the two produce byte-identical artifacts: the noise seed
// derives from the release index (release.Recipe's seed rule) and the
// inputs derive from the WAL prefix the intent records.
func (u *Updater) finishPublish(intent intentState) error {
	social, prefs, err := u.st.snapshot()
	if err != nil {
		return err
	}
	recipe := release.Recipe{Measure: u.cfg.Measure.Name(), Eps: u.cfg.PerRelease,
		LouvainRuns: u.cfg.LouvainRuns, Seed: u.cfg.Seed, Index: intent.Releases}
	var version uint64
	switch intent.Kind {
	case intentFull:
		rel, err := recipe.Build(context.Background(), social, prefs)
		if err != nil {
			return err
		}
		version, err = u.cfg.Store.Save(rel)
		if err != nil {
			return err
		}
		u.published = rel
		u.lineage = release.Lineage{Full: version}
		u.deltaChain = 0
	case intentDelta:
		if u.published == nil {
			return fmt.Errorf("dynamic: delta intent with no published base")
		}
		if got := u.lineage.Version(); got != intent.Base {
			return fmt.Errorf("dynamic: delta intent chains to version %d but store serves %d", intent.Base, got)
		}
		plan, err := u.planDelta(social, prefs)
		if err != nil {
			return err
		}
		rows, err := mechanism.DeltaRows(context.Background(), plan.repaired, prefs,
			plan.fresh, u.cfg.PerRelease, recipe.Noise())
		if err != nil {
			return err
		}
		delta := &release.Delta{
			Base:     intent.Base,
			Epsilon:  float64(u.cfg.PerRelease),
			Measure:  u.published.Measure,
			NumItems: prefs.NumItems(),
			Assign:   plan.repaired.Assignment(),
			Source:   plan.source,
			Fresh:    rows,
		}
		applied, err := delta.Apply(u.published)
		if err != nil {
			return err
		}
		version, err = u.cfg.Store.SaveDeltaContext(context.Background(), delta)
		if err != nil {
			return err
		}
		u.published = applied
		u.lineage.Deltas = append(u.lineage.Deltas, version)
		u.deltaChain++
		u.deltaPubs.Inc()
	default:
		return fmt.Errorf("dynamic: intent kind %d not publishable", intent.Kind)
	}
	if version != intent.Version {
		// The artifact landed at an unexpected version: another writer is
		// sharing the store. The lineage above is what the store actually
		// holds, so serving stays consistent, but the journal's intent can
		// no longer be trusted for recompute.
		return fmt.Errorf("dynamic: publish landed at version %d but intent journaled %d (store has another writer?)",
			version, intent.Version)
	}
	u.pubSeq = intent.Seq
	u.touched = make(map[int32]struct{})
	u.publishes.Inc()
	return nil
}

// deltaPlan is the deterministic derivation of a delta release from the
// current graph, the published clustering, and the touched-user set.
type deltaPlan struct {
	repaired      *community.Clustering
	source        []int32
	fresh         []bool
	freshFraction float64
	modGain       float64
}

// planDelta repairs the community structure around the touched vertices
// and computes which clusters must be re-released: every cluster whose
// membership differs from its base cluster, plus every cluster containing
// a user whose preference edges changed. The derivation reads only the
// public social graph and the (public) touched-id set; preference
// adjacency enters only through mechanism.DeltaRows.
func (u *Updater) planDelta(social *graph.Social, prefs *graph.Preference) (*deltaPlan, error) {
	base := u.published.Clusters
	touched := make([]int32, 0, len(u.touched))
	for t := range u.touched {
		if int(t) < social.NumUsers() {
			touched = append(touched, t)
		}
	}
	// Map order is random; Repair's move order is not. Sort for
	// determinism across recomputations.
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	repaired, err := community.Repair(social, base, touched)
	if err != nil {
		return nil, err
	}
	n := social.NumUsers()
	baseN := base.NumUsers()
	nc := repaired.NumClusters()

	// A repaired cluster reuses base cluster b's released row iff its
	// membership is exactly b's and none of its members were touched.
	source := make([]int32, nc)
	size := make([]int, nc)
	for c := range source {
		source[c] = -2 // unseen
	}
	dirty := make([]bool, nc)
	for v := 0; v < n; v++ {
		c := repaired.Cluster(v)
		size[c]++
		var b int32 = -1
		if v < baseN {
			b = int32(base.Cluster(v))
		}
		if source[c] == -2 {
			source[c] = b
		} else if source[c] != b {
			source[c] = -1
		}
	}
	for _, t := range touched {
		dirty[repaired.Cluster(int(t))] = true
	}
	fresh := make([]bool, nc)
	freshUsers := 0
	for c := 0; c < nc; c++ {
		if b := source[c]; b >= 0 && !dirty[c] && size[c] == base.Size(int(b)) {
			// Unchanged membership, untouched preferences: reuse the row.
		} else {
			if source[c] >= 0 {
				source[c] = -1
			}
			fresh[c] = true
			freshUsers += size[c]
		}
		if source[c] == -2 {
			source[c] = -1 // empty cluster cannot occur post-compaction, but be safe
		}
	}
	plan := &deltaPlan{
		repaired:      repaired,
		source:        source,
		fresh:         fresh,
		freshFraction: float64(freshUsers) / float64(n),
	}
	// Modularity gain of the repair over serving the stale clustering
	// (padded with singletons for new users) on today's graph.
	stale := make([]int32, n)
	copy(stale, base.Assignment())
	next := int32(base.NumClusters())
	for v := baseN; v < n; v++ {
		stale[v] = next
		next++
	}
	staleCl, err := community.FromAssignment(stale)
	if err != nil {
		return nil, err
	}
	plan.modGain = community.Modularity(social, repaired) - community.Modularity(social, staleCl)
	return plan, nil
}
