// Package attack implements the privacy attacks of §2.3 of the paper — the
// Sybil/profile-cloning constructions that let an adversary read a victim's
// private preference edges out of a non-private social recommender — and
// the machinery to measure how well a recommender (private or not) resists
// them. The examples/sybilattack program and the empirical-privacy
// benchmarks build on this package.
//
// The §2.3 construction: the adversary locates (or creates, via a
// profile-cloning friend request) an accomplice node a whose only real
// friendship is with the victim, then attaches a chain of fake "Sybil"
// accounts to a. Under Common Neighbors or Adamic/Adar one Sybil suffices:
// its similarity set is exactly {victim}, so its recommendation list *is*
// the victim's preference list. Under Graph Distance or Katz with cutoff d,
// a chain of d−1 Sybils places the observer just inside the cutoff with the
// victim as the only preference-bearing user in range.
package attack

import (
	"context"
	"fmt"

	"socialrec/internal/core"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/release"
	"socialrec/internal/similarity"
)

// Topology is a social graph spliced with the adversary's fake accounts.
type Topology struct {
	// Social is the original graph extended with the accomplice (if one
	// had to be created) and the Sybil chain.
	Social *graph.Social
	// Victim is the targeted user (an id of the original graph).
	Victim int
	// Accomplice is the degree-1 (in the original graph) neighbor of the
	// victim through which the attack routes.
	Accomplice int
	// Observer is the Sybil whose recommendations the adversary reads.
	Observer int
	// Added lists the user ids appended to the original graph, in order.
	Added []int
}

// Plan builds the §2.3 topology with a Sybil chain of the given length
// (1 for CN/AA; d−1 for GD or KZ with cutoff d). If the victim already has
// a neighbor with degree 1, it is reused as the accomplice; otherwise an
// accomplice is created first (the paper's profile-cloning step). It
// returns an error if the victim id is out of range or the chain length is
// not positive.
func Plan(social *graph.Social, victim, chainLen int) (*Topology, error) {
	if victim < 0 || victim >= social.NumUsers() {
		return nil, fmt.Errorf("attack: victim %d out of range [0, %d)", victim, social.NumUsers())
	}
	if chainLen < 1 {
		return nil, fmt.Errorf("attack: chain length must be >= 1, got %d", chainLen)
	}
	accomplice := -1
	for _, v := range social.Neighbors(victim) {
		if social.Degree(int(v)) == 1 {
			accomplice = int(v)
			break
		}
	}
	n := social.NumUsers()
	var added []int
	extra := chainLen
	if accomplice < 0 {
		accomplice = n
		added = append(added, accomplice)
		extra++
	}
	b := graph.NewSocialBuilder(n + extra)
	for u := 0; u < n; u++ {
		for _, v := range social.Neighbors(u) {
			if u < int(v) {
				if err := b.AddEdge(u, int(v)); err != nil {
					return nil, err
				}
			}
		}
	}
	next := n + len(added)
	if accomplice >= n {
		if err := b.AddEdge(victim, accomplice); err != nil {
			return nil, err
		}
	}
	prev := accomplice
	observer := -1
	for i := 0; i < chainLen; i++ {
		sybil := next
		next++
		added = append(added, sybil)
		if err := b.AddEdge(prev, sybil); err != nil {
			return nil, err
		}
		prev = sybil
		observer = sybil
	}
	return &Topology{
		Social:     b.Build(),
		Victim:     victim,
		Accomplice: accomplice,
		Observer:   observer,
		Added:      added,
	}, nil
}

// ChainLengthFor returns the §2.3 Sybil chain length for a similarity
// measure: 1 for CN and AA, d−1 for GD with cutoff d, k−1 for KZ with
// cutoff k.
func ChainLengthFor(m similarity.Measure) int {
	switch mm := m.(type) {
	case similarity.GraphDistance:
		d := mm.MaxDist
		if d <= 0 {
			d = 2
		}
		return d - 1
	case similarity.Katz:
		k := mm.MaxLen
		if k <= 0 {
			k = 3
		}
		return k - 1
	default:
		return 1
	}
}

// ExtendPrefs re-homes a preference graph onto the spliced user set: the
// adversary's accounts hold no preference edges.
func ExtendPrefs(p *graph.Preference, numUsers int) (*graph.Preference, error) {
	if numUsers < p.NumUsers() {
		return nil, fmt.Errorf("attack: cannot shrink preference graph (%d < %d)", numUsers, p.NumUsers())
	}
	b := graph.NewPreferenceBuilder(numUsers, p.NumItems())
	for u := 0; u < p.NumUsers(); u++ {
		for _, i := range p.Items(u) {
			if err := b.AddEdge(u, int(i)); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// HitRate measures attack success: the fraction of the victim's secret
// preference edges that appear in the observer's recommendation list. A
// non-private recommender under the §2.3 topology yields 1.0.
func HitRate(recs []core.Recommendation, secret []int32) float64 {
	if len(secret) == 0 {
		return 0
	}
	want := make(map[int32]struct{}, len(secret))
	for _, i := range secret {
		want[i] = struct{}{}
	}
	hits := 0
	for _, r := range recs {
		if _, ok := want[r.Item]; ok {
			hits++
		}
	}
	return float64(hits) / float64(len(secret))
}

// observe asks an estimator for the observer's top-|secret| list under the
// given measure on the spliced graph.
func (t *Topology) observe(est core.Estimator, m similarity.Measure, prefs *graph.Preference, listLen int) ([]core.Recommendation, error) {
	rec := core.NewRecommender(t.Social, prefs.NumItems(), m, est)
	lists, err := rec.Recommend([]int32{int32(t.Observer)}, listLen)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// RunExact mounts the attack against the non-private recommender
// (Definition 4) and returns the hit rate — 1.0 whenever the topology
// isolates the victim as the observer's only preference-bearing similar
// user.
func RunExact(t *Topology, prefs *graph.Preference, m similarity.Measure) (float64, error) {
	extended, err := ExtendPrefs(prefs, t.Social.NumUsers())
	if err != nil {
		return 0, err
	}
	secret := prefs.Items(t.Victim)
	recs, err := t.observe(mechanism.NewExact(extended), m, extended, len(secret))
	if err != nil {
		return 0, err
	}
	return HitRate(recs, secret), nil
}

// RunPrivate mounts the attack against the paper's cluster framework at the
// given budget: the spliced graph (Sybils included — the defender cannot
// tell them apart) is released through the release.Recipe of louvainRuns
// Louvain restarts (< 1 selects 10) and seed, and the observer's list is
// scored against the victim's secret edges.
func RunPrivate(t *Topology, prefs *graph.Preference, m similarity.Measure, eps dp.Epsilon, louvainRuns int, seed int64) (float64, error) {
	extended, err := ExtendPrefs(prefs, t.Social.NumUsers())
	if err != nil {
		return 0, err
	}
	recipe := release.Recipe{Measure: m.Name(), Eps: eps, LouvainRuns: louvainRuns, Seed: seed}
	clusters, err := recipe.Cluster(context.Background(), t.Social)
	if err != nil {
		return 0, err
	}
	est, err := mechanism.NewCluster(clusters, extended, eps, recipe.Noise())
	if err != nil {
		return 0, err
	}
	secret := prefs.Items(t.Victim)
	recs, err := t.observe(est, m, extended, len(secret))
	if err != nil {
		return 0, err
	}
	return HitRate(recs, secret), nil
}
