// Sharded releases: one private release split into per-cluster shard
// artifacts plus a manifest, so N serving processes can each hold a slice
// of the averages table instead of every process holding the whole thing.
//
// The split is exact, not approximate. Reconstruction (Eq. 4 of the paper,
// mechanism.Cluster.Utilities) folds a user's similarity mass through the
// cluster averages of every cluster containing a similar user, and every
// similarity measure in this repository has a bounded horizon: sim(u) lies
// within H hops of u (similarity.Horizon). A shard that owns a set of
// clusters therefore serves its users exactly iff it also holds the rows of
// every cluster reachable within H hops of an owned user — the shard's
// "halo". SplitRelease computes that halo by multi-source BFS over the
// public social graph, so a shard answers byte-identically to the unsharded
// release for every user it owns, and refuses (rather than silently
// degrading) users it does not.
//
// Everything here is post-processing over the sanitized release: splitting,
// persisting and re-serving shards consumes no further privacy budget.
package release

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"socialrec/internal/community"
	"socialrec/internal/faults"
	"socialrec/internal/frame"
	"socialrec/internal/graph"
	"socialrec/internal/trace"
)

// Sharded-release filename layout, sharing the release store's atomic-write
// discipline: a manifest commits a sharded release generation, shard files
// are written (and fsynced) before the manifest that names them, so a crash
// mid-split leaves either the previous generation intact or the new one
// fully durable — the manifest is the commit point, like the pipeline's
// receipts.
const (
	manifestMagic = "SOCMANv2"
	shardMagic    = "SOCSHDv2"
	shardPrefix   = "shard-"
	shardSuffix   = ".socshd"
)

// foreignSentinel is the on-disk marker for a shard's collapsed "foreign"
// cluster: every user whose cluster is not resident on the shard maps to
// it, and its averages row is all zeros. It exists so the shard's embedded
// release stays a valid dense clustering over the full user population; a
// request for a foreign user is rejected by ownership (Shard.Owns), never
// answered from the zero row.
const foreignSentinel = int32(-1)

// Manifest describes one sharded release generation: which shard owns each
// cluster, which cluster each user belongs to, and the release metadata a
// router needs to route and aggregate without loading any averages.
//
// Cluster membership derives from the public social graph only (paper
// Theorem 4), so a manifest is safe to hold in a router that never sees
// preference data.
type Manifest struct {
	// Version is the store version of this sharded generation; 0 until the
	// manifest is persisted.
	Version uint64
	// NumShards is how many shards the release was split into.
	NumShards int
	// Epsilon, Measure and NumItems mirror the source release.
	Epsilon  float64
	Measure  string
	NumItems int
	// Horizon is the similarity horizon (hops) the shard halos were built
	// for; -1 records full replication (no provable bound for the measure).
	Horizon int
	// ClusterShard maps each global cluster id to its owning shard.
	ClusterShard []int32
	// Assign maps each user to their global cluster id.
	Assign []int32
}

// NumUsers reports the user population the manifest routes.
func (m *Manifest) NumUsers() int { return len(m.Assign) }

// NumClusters reports the global cluster count.
func (m *Manifest) NumClusters() int { return len(m.ClusterShard) }

// ShardOf reports which shard owns the given user, or -1 for an
// out-of-range user.
func (m *Manifest) ShardOf(user int) int {
	if user < 0 || user >= len(m.Assign) {
		return -1
	}
	return int(m.ClusterShard[m.Assign[user]])
}

// Validate checks internal consistency.
func (m *Manifest) Validate() error {
	if m.NumShards < 1 {
		return fmt.Errorf("release: manifest has %d shards", m.NumShards)
	}
	if m.NumItems < 0 {
		return fmt.Errorf("release: manifest has negative item count")
	}
	for _, s := range m.ClusterShard {
		if s < 0 || int(s) >= m.NumShards {
			return fmt.Errorf("release: manifest assigns a cluster to shard %d of %d", s, m.NumShards)
		}
	}
	for _, c := range m.Assign {
		if c < 0 || int(c) >= len(m.ClusterShard) {
			return fmt.Errorf("release: manifest assigns a user to cluster %d of %d", c, len(m.ClusterShard))
		}
	}
	return nil
}

// Shard is one slice of a sharded release: the embedded sub-release holds
// the averages rows of the shard's resident clusters (owned + halo) under a
// local dense numbering, plus one zero "foreign" row collapsing everything
// else, so the existing engine machinery serves it unchanged.
type Shard struct {
	// Version is the sharded generation this shard belongs to; stamped at
	// persist time, 0 before.
	Version uint64
	// ID identifies this shard in [0, NumShards).
	ID int
	// NumShards is the generation's shard count.
	NumShards int
	// LocalToGlobal maps the embedded release's local cluster ids back to
	// global cluster ids; the foreign sentinel row maps to -1.
	LocalToGlobal []int32
	// OwnedLocal marks the local clusters this shard owns (serves requests
	// for). Halo rows are resident for exact reconstruction but their users
	// are owned by other shards; the foreign row is never owned.
	OwnedLocal []bool
	// Release is the remapped sub-release: assignment over the full user
	// population in local cluster ids, averages rows for resident clusters
	// only (plus the zero foreign row when any user is non-resident).
	Release *Release
}

// Owns reports whether this shard is responsible for the given user. A
// request for a non-owned user must be refused: halo and foreign rows make
// the answer for such a user silently wrong, not approximate.
func (s *Shard) Owns(user int) bool {
	if user < 0 || user >= s.Release.Clusters.NumUsers() {
		return false
	}
	return s.OwnedLocal[s.Release.Clusters.Cluster(user)]
}

// GlobalCluster reports the user's global cluster id (for any user, owned
// or not), or -1 if the user's cluster is not resident on this shard.
func (s *Shard) GlobalCluster(user int) int {
	if user < 0 || user >= s.Release.Clusters.NumUsers() {
		return -1
	}
	return int(s.LocalToGlobal[s.Release.Clusters.Cluster(user)])
}

// Validate checks internal consistency.
func (s *Shard) Validate() error {
	if s.Release == nil {
		return fmt.Errorf("release: shard %d has no embedded release", s.ID)
	}
	if err := s.Release.Validate(); err != nil {
		return fmt.Errorf("release: shard %d: %w", s.ID, err)
	}
	if s.NumShards < 1 || s.ID < 0 || s.ID >= s.NumShards {
		return fmt.Errorf("release: shard id %d out of range [0, %d)", s.ID, s.NumShards)
	}
	n := s.Release.Clusters.NumClusters()
	if len(s.LocalToGlobal) != n || len(s.OwnedLocal) != n {
		return fmt.Errorf("release: shard %d maps %d/%d clusters, release has %d",
			s.ID, len(s.LocalToGlobal), len(s.OwnedLocal), n)
	}
	return nil
}

// SplitRelease splits r into per-cluster shards. clusterShard assigns each
// global cluster to a shard (as produced by a router ring; every value must
// be in [0, numShards)); numShards is the target shard count. horizon is
// the similarity horizon in hops (similarity.Horizon of the measure the
// release will be served with): each shard's halo is every cluster
// reachable within that many hops of an owned user, computed on the public
// social graph, which must cover the same user population as the release.
// A negative horizon selects full replication — every shard holds every
// row — the only exact choice when the measure has no provable bound.
//
// The returned manifest and shards have Version 0; Store.SaveSharded stamps
// the persisted generation.
func SplitRelease(r *Release, social *graph.Social, clusterShard []int32, numShards, horizon int) (*Manifest, []*Shard, error) {
	if err := r.Validate(); err != nil {
		return nil, nil, err
	}
	if numShards < 1 {
		return nil, nil, fmt.Errorf("release: splitting into %d shards", numShards)
	}
	numClusters := r.Clusters.NumClusters()
	if len(clusterShard) != numClusters {
		return nil, nil, fmt.Errorf("release: cluster assignment covers %d clusters, release has %d",
			len(clusterShard), numClusters)
	}
	for _, s := range clusterShard {
		if s < 0 || int(s) >= numShards {
			return nil, nil, fmt.Errorf("release: cluster assigned to shard %d of %d", s, numShards)
		}
	}
	if social.NumUsers() != r.Clusters.NumUsers() {
		return nil, nil, fmt.Errorf("release: social graph has %d users, release covers %d",
			social.NumUsers(), r.Clusters.NumUsers())
	}
	m := &Manifest{
		NumShards:    numShards,
		Epsilon:      r.Epsilon,
		Measure:      r.Measure,
		NumItems:     r.NumItems,
		Horizon:      horizon,
		ClusterShard: append([]int32(nil), clusterShard...),
		Assign:       append([]int32(nil), r.Clusters.Assignment()...),
	}
	shards := make([]*Shard, numShards)
	for id := 0; id < numShards; id++ {
		sh, err := buildShard(r, social, m, id, horizon)
		if err != nil {
			return nil, nil, err
		}
		shards[id] = sh
	}
	return m, shards, nil
}

// buildShard assembles one shard: resident set = owned clusters ∪ horizon
// halo, then a remapped sub-release under local ids assigned in first-user
// order (community.FromAssignment renumbers by first appearance, so this
// ordering — and only this ordering — survives a serialization round trip).
func buildShard(r *Release, social *graph.Social, m *Manifest, id, horizon int) (*Shard, error) {
	numClusters := r.Clusters.NumClusters()
	resident := make([]bool, numClusters)
	for c := 0; c < numClusters; c++ {
		if int(m.ClusterShard[c]) == id {
			resident[c] = true
		}
	}
	if horizon < 0 {
		for c := range resident {
			resident[c] = true
		}
	} else {
		addHalo(resident, social, m, id, horizon)
	}

	// Remap: local ids in order of first appearance over users 0..n-1, the
	// order FromAssignment will re-derive. Non-resident users share one
	// foreign sentinel cluster.
	numUsers := r.Clusters.NumUsers()
	assignLocal := make([]int32, numUsers)
	globalToLocal := make([]int32, numClusters)
	for i := range globalToLocal {
		globalToLocal[i] = -1
	}
	var (
		localToGlobal []int32
		foreignLocal  = int32(-1)
	)
	for u := 0; u < numUsers; u++ {
		g := int32(r.Clusters.Cluster(u))
		if !resident[g] {
			if foreignLocal < 0 {
				foreignLocal = int32(len(localToGlobal))
				localToGlobal = append(localToGlobal, foreignSentinel)
			}
			assignLocal[u] = foreignLocal
			continue
		}
		if globalToLocal[g] < 0 {
			globalToLocal[g] = int32(len(localToGlobal))
			localToGlobal = append(localToGlobal, g)
		}
		assignLocal[u] = globalToLocal[g]
	}
	clusters, err := community.FromAssignment(assignLocal)
	if err != nil {
		return nil, fmt.Errorf("release: building shard %d clustering: %w", id, err)
	}
	numLocal := len(localToGlobal)
	if clusters.NumClusters() != numLocal {
		return nil, fmt.Errorf("release: shard %d clustering has %d clusters, want %d",
			id, clusters.NumClusters(), numLocal)
	}
	avg := make([]float64, numLocal*r.NumItems)
	owned := make([]bool, numLocal)
	for local, g := range localToGlobal {
		if g == foreignSentinel {
			continue // zero row
		}
		copy(avg[local*r.NumItems:(local+1)*r.NumItems], r.Avg[int(g)*r.NumItems:(int(g)+1)*r.NumItems])
		owned[local] = int(m.ClusterShard[g]) == id
	}
	sh := &Shard{
		ID:            id,
		NumShards:     m.NumShards,
		LocalToGlobal: localToGlobal,
		OwnedLocal:    owned,
		Release: &Release{
			Epsilon:  r.Epsilon,
			Measure:  r.Measure,
			Clusters: clusters,
			NumItems: r.NumItems,
			Avg:      avg,
		},
	}
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	return sh, nil
}

// addHalo marks as resident every cluster containing a user within horizon
// hops of any user of a cluster owned by shard id, via one multi-source BFS
// seeded with all owned users at depth 0.
func addHalo(resident []bool, social *graph.Social, m *Manifest, id, horizon int) {
	numUsers := social.NumUsers()
	visited := make([]bool, numUsers)
	var frontier []int32
	for u := 0; u < numUsers; u++ {
		if int(m.ClusterShard[m.Assign[u]]) == id {
			visited[u] = true
			frontier = append(frontier, int32(u))
		}
	}
	var next []int32
	for d := 0; d < horizon && len(frontier) > 0; d++ {
		next = next[:0]
		for _, u := range frontier {
			for _, v := range social.Neighbors(int(u)) {
				if visited[v] {
					continue
				}
				visited[v] = true
				resident[m.Assign[v]] = true
				next = append(next, v)
			}
		}
		frontier, next = next, frontier
	}
}

// WriteManifest serializes m as one frame:
//
//	version       u64
//	shards        u32
//	epsilon       f64
//	measure       string
//	items         u32
//	horizon       i32     (-1 = full replication)
//	clusterShard  []i32   global cluster → owning shard
//	assign        []i32   user → global cluster
func WriteManifest(w io.Writer, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	fw := frame.NewWriter(w, manifestMagic)
	fw.U64(m.Version)
	fw.U32(uint32(m.NumShards))
	fw.F64(m.Epsilon)
	fw.String(m.Measure)
	fw.U32(uint32(m.NumItems))
	fw.I32(int32(m.Horizon))
	fw.I32s(m.ClusterShard)
	fw.I32s(m.Assign)
	return fw.Close()
}

// ReadManifest deserializes and validates a manifest, including its
// checksum.
func ReadManifest(r io.Reader) (*Manifest, error) {
	fr := frame.NewReader(r, manifestMagic)
	m := &Manifest{Version: fr.U64("version")}
	shards := fr.U32("shards")
	m.Epsilon = fr.F64("epsilon")
	m.Measure = fr.String("measure")
	items := fr.U32("items")
	m.Horizon = int(fr.I32("horizon"))
	m.ClusterShard = fr.I32s("cluster map")
	m.Assign = fr.I32s("assignment")
	if err := fr.Close(); err != nil {
		return nil, err
	}
	if shards > maxDim || items > maxDim {
		return nil, fmt.Errorf("release: implausible manifest dimensions")
	}
	m.NumShards, m.NumItems = int(shards), int(items)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteShardContext serializes a shard as one frame: its header, then the
// embedded release's body (WriteBody). The embedded release's persist
// event carries ctx's active trace id, as for an unsharded persist.
//
//	version        u64
//	id             u32
//	shards         u32
//	localToGlobal  []i32    local cluster → global cluster, -1 = foreign row
//	owned          []bool   local clusters this shard serves
//	release body
func WriteShardContext(ctx context.Context, w io.Writer, s *Shard) error {
	if err := s.Validate(); err != nil {
		return err
	}
	fw := frame.NewWriter(w, shardMagic)
	fw.U64(s.Version)
	fw.U32(uint32(s.ID))
	fw.U32(uint32(s.NumShards))
	fw.I32s(s.LocalToGlobal)
	fw.Bools(s.OwnedLocal)
	if err := WriteBody(fw, s.Release); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	recordPostProcessing(ctx, "release_persist", len(s.Release.Avg))
	return nil
}

// ReadShardContext deserializes and validates a shard, including its
// checksum; see WriteShardContext.
func ReadShardContext(ctx context.Context, r io.Reader) (*Shard, error) {
	fr := frame.NewReader(r, shardMagic)
	s := &Shard{Version: fr.U64("version")}
	id := fr.U32("id")
	shards := fr.U32("shards")
	s.LocalToGlobal = fr.I32s("cluster map")
	s.OwnedLocal = fr.Bools("owned clusters")
	rel, err := ReadBody(fr)
	if err == nil {
		err = fr.Close()
	}
	if err != nil {
		return nil, err
	}
	if shards > maxDim {
		return nil, fmt.Errorf("release: implausible shard count")
	}
	s.ID, s.NumShards, s.Release = int(id), int(shards), rel
	if err := s.Validate(); err != nil {
		return nil, err
	}
	recordPostProcessing(ctx, "release_load", len(rel.Avg))
	return s, nil
}

// shardFileName renders the versioned filename for one shard.
func shardFileName(v uint64, id, numShards int) string {
	return fmt.Sprintf("%s%012d-%03d-of-%03d%s", shardPrefix, v, id, numShards, shardSuffix)
}

// SaveSharded persists a sharded generation as the next manifest version:
// every shard file is written and made durable first, the manifest last, so
// the manifest is the commit point — a crash mid-save leaves at worst
// invisible shard debris for the next Open to sweep, never a manifest
// naming missing or torn shards. The manifest and shards are stamped with
// the version they became.
func (s *Store) SaveSharded(ctx context.Context, m *Manifest, shards []*Shard) (uint64, error) {
	ctx, sp := trace.StartChild(ctx, "release_store_save_sharded")
	defer sp.End()
	v, err := s.saveSharded(ctx, m, shards)
	if err != nil {
		s.saveFailures.Inc()
		sp.SetStatus(trace.StatusError)
		return 0, err
	}
	s.saves.Inc()
	sp.Set(attrVersion.Int(int64(v)))
	sp.Set(attrShards.Int(int64(len(shards))))
	return v, nil
}

func (s *Store) saveSharded(ctx context.Context, m *Manifest, shards []*Shard) (uint64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if len(shards) != m.NumShards {
		return 0, fmt.Errorf("release: manifest names %d shards, got %d", m.NumShards, len(shards))
	}
	versions, err := s.Versions(Manifests)
	if err != nil {
		return 0, err
	}
	next := uint64(1)
	if len(versions) > 0 {
		next = versions[len(versions)-1] + 1
	}
	for i, sh := range shards {
		if sh.ID != i || sh.NumShards != m.NumShards {
			return 0, fmt.Errorf("release: shard %d labeled %d-of-%d", i, sh.ID, sh.NumShards)
		}
		sh.Version = next
		final := filepath.Join(s.dir, shardFileName(next, sh.ID, m.NumShards))
		if err := faults.WriteAtomicFunc(s.fsys, final, func(w io.Writer) error {
			return WriteShardContext(ctx, w, sh)
		}); err != nil {
			return 0, fmt.Errorf("release: saving shard %d of version %d: %w", sh.ID, next, err)
		}
	}
	m.Version = next
	final := filepath.Join(s.dir, Manifests.file(next))
	if err := faults.WriteAtomicFunc(s.fsys, final, func(w io.Writer) error {
		return WriteManifest(w, m)
	}); err != nil {
		return 0, fmt.Errorf("release: saving manifest version %d: %w", next, err)
	}
	return next, nil
}

// LoadManifest opens the newest valid manifest, working backwards over
// corrupt or truncated generations exactly like Load does for releases.
// skipped lists what recovery passed over; the error is ErrStoreEmpty when
// no manifest validates.
func (s *Store) LoadManifest(ctx context.Context) (m *Manifest, skipped []Skipped, err error) {
	_, sp := trace.StartChild(ctx, "release_store_load_manifest")
	defer sp.End()
	m, _, skipped, err = newest(s, sp, Manifests, s.loadManifestVersion)
	return m, skipped, err
}

func (s *Store) loadManifestVersion(v uint64) (*Manifest, error) {
	var m *Manifest
	if err := s.read(Manifests.file(v), func(f io.Reader) (err error) {
		m, err = ReadManifest(f)
		return err
	}); err != nil {
		return nil, fmt.Errorf("release: loading manifest %d: %w", v, err)
	}
	if m.Version != v {
		return nil, fmt.Errorf("release: manifest file %d records version %d", v, m.Version)
	}
	return m, nil
}

// LoadShard opens one shard of the manifest's generation, validating both
// checksums and that the file agrees with the manifest about who it is.
func (s *Store) LoadShard(ctx context.Context, m *Manifest, id int) (*Shard, error) {
	ctx, sp := trace.StartChild(ctx, "release_store_load_shard")
	defer sp.End()
	if id < 0 || id >= m.NumShards {
		sp.SetStatus(trace.StatusError)
		return nil, fmt.Errorf("release: shard id %d out of range [0, %d)", id, m.NumShards)
	}
	name := shardFileName(m.Version, id, m.NumShards)
	var sh *Shard
	if err := s.read(name, func(f io.Reader) (err error) {
		sh, err = ReadShardContext(ctx, f)
		return err
	}); err != nil {
		sp.SetStatus(trace.StatusError)
		return nil, fmt.Errorf("release: loading shard %d of version %d: %w", id, m.Version, err)
	}
	if sh.ID != id || sh.NumShards != m.NumShards || sh.Version != m.Version {
		sp.SetStatus(trace.StatusError)
		return nil, fmt.Errorf("release: shard file %s is %d-of-%d version %d, manifest wants %d-of-%d version %d",
			name, sh.ID, sh.NumShards, sh.Version, id, m.NumShards, m.Version)
	}
	if sh.Release.NumItems != m.NumItems || sh.Release.Measure != m.Measure ||
		!sameEpsilon(sh.Release.Epsilon, m.Epsilon) ||
		sh.Release.Clusters.NumUsers() != m.NumUsers() {
		sp.SetStatus(trace.StatusError)
		return nil, fmt.Errorf("release: shard file %s disagrees with its manifest", name)
	}
	sp.Set(attrVersion.Int(int64(m.Version)))
	sp.Set(attrShard.Int(int64(id)))
	return sh, nil
}

// sameEpsilon compares release budgets exactly: both values come from the
// same persisted release, so any difference is corruption, not arithmetic.
func sameEpsilon(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// Span attribute keys for sharded-store spans.
var (
	attrShards = trace.NewKey("shards")
	attrShard  = trace.NewKey("shard")
)
