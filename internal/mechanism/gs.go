package mechanism

import (
	"fmt"
	"sort"

	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/metrics"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
)

// GSConfig configures the Group-and-Smooth comparator.
type GSConfig struct {
	// Eps is the total privacy budget; half is spent on the rough
	// estimates that drive grouping and half on the group averages.
	Eps dp.Epsilon
	// MaxInfluence is Δ = max_v Σ_u sim(u,v) (similarity.MaxInfluence);
	// the group-average noise scale is 2Δ/(m·ε).
	MaxInfluence float64
	// GroupSizes are the candidate m values to try; nil selects
	// {1, 2, 4, ..., 512}. Following the paper's §6.4 simplification, the
	// m with the best NDCG against the true utilities is kept (the paper
	// notes this technically violates DP and favours GS; we reproduce the
	// same favourable treatment).
	GroupSizes []int
	// Seed drives the *sampling* of rough estimates and all noise.
	Seed int64
}

// gsSelectN is the N at which candidate group sizes are scored: Fig. 4
// reports NDCG@50.
const gsSelectN = 50

func (c GSConfig) groupSizes() []int {
	if len(c.GroupSizes) > 0 {
		return c.GroupSizes
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
}

// GS adapts the Group-and-Smooth approach of Kellaris & Papadopoulos [17] to
// the social recommendation task, following §6.4 of the paper:
//
//  1. Rough estimates: every preference edge (v, i) contributes
//     sim(u, v) to the rough estimate of exactly one query (u, i), with u
//     drawn uniformly from sim(v); Laplace noise with budget ε/2 and
//     per-user sensitivity max_{v ∈ sim(u)} sim(u, v) is then added.
//  2. The true query answers are sorted by their noisy rough estimates and
//     grouped consecutively into groups of size m.
//  3. Each group is replaced by its noisy mean, with noise
//     Lap(2Δ/(m·ε)) where Δ = max_v Σ_u sim(u, v).
//
// Because GS must group the whole query workload jointly, it is constructed
// for a fixed set of evaluation users; Utilities serves only those users.
type GS struct {
	numItems int
	rowOf    map[int32]int
	smoothed [][]float64
	chosenM  int
}

// NewGS builds the Group-and-Smooth release for the utility-query workload
// of evalUsers. allSims must hold the similarity vector of *every* user in
// the graph, indexed by user id (the sampling step routes each preference
// edge through the similarity set of its owner, who need not be an
// evaluation user).
func NewGS(prefs *graph.Preference, evalUsers []int32, evalSims []similarity.Scores, allSims []similarity.Scores, cfg GSConfig) (*GS, error) {
	if err := cfg.Eps.Validate(); err != nil {
		return nil, err
	}
	if len(evalUsers) != len(evalSims) {
		return nil, fmt.Errorf("mechanism: %d eval users but %d similarity vectors", len(evalUsers), len(evalSims))
	}
	if len(allSims) != prefs.NumUsers() {
		return nil, fmt.Errorf("mechanism: allSims covers %d users, want %d", len(allSims), prefs.NumUsers())
	}
	ni := prefs.NumItems()
	g := &GS{
		numItems: ni,
		rowOf:    make(map[int32]int, len(evalUsers)),
	}
	for k, u := range evalUsers {
		if _, dup := g.rowOf[u]; dup {
			return nil, fmt.Errorf("mechanism: duplicate eval user %d", u)
		}
		g.rowOf[u] = k
	}
	rng := dp.NewRand(cfg.Seed)
	noise := dp.NewLaplaceSource(cfg.Seed + 1)
	halfEps := 0.0
	if !cfg.Eps.IsInf() {
		halfEps = float64(cfg.Eps) / 2
	}

	// True answers for the whole evaluation workload.
	truth := make([][]float64, len(evalUsers))
	exact := NewExact(prefs)
	for k := range truth {
		truth[k] = make([]float64, ni)
	}
	exact.Utilities(evalUsers, evalSims, truth)

	// Step 1: sampled rough estimates. Each edge (v, i) is spent on one
	// randomly chosen receiver u ∈ sim(v).
	rough := make([][]float64, len(evalUsers))
	for k := range rough {
		rough[k] = make([]float64, ni)
	}
	for i := 0; i < ni; i++ {
		for _, v := range prefs.Users(i) {
			cand := allSims[v]
			if len(cand.Users) == 0 {
				continue
			}
			j := rng.Intn(len(cand.Users))
			if k, ok := g.rowOf[cand.Users[j]]; ok {
				rough[k][i] += cand.Vals[j]
			}
		}
	}
	for k := range rough {
		if halfEps == 0 {
			break
		}
		delta := evalSims[k].Max()
		scale := delta / halfEps
		row := rough[k]
		for i := range row {
			row[i] += noise.Laplace(scale)
		}
	}

	// Step 2: order the workload by rough estimate.
	type query struct{ row, item int32 }
	order := make([]query, 0, len(evalUsers)*ni)
	for k := range evalUsers {
		for i := 0; i < ni; i++ {
			order = append(order, query{int32(k), int32(i)})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		qa, qb := order[a], order[b]
		ra, rb := rough[qa.row][qa.item], rough[qb.row][qb.item]
		if ra < rb {
			return true
		}
		if ra > rb {
			return false
		}
		if qa.row != qb.row {
			return qa.row < qb.row
		}
		return qa.item < qb.item
	})

	// Step 3: for each candidate m, smooth with noisy group means and keep
	// the m with the best NDCG against the true utilities.
	smooth := func(m int, dst [][]float64) {
		for g := 0; g < len(order); g += m {
			end := g + m
			if end > len(order) {
				end = len(order)
			}
			var sum float64
			for _, q := range order[g:end] {
				sum += truth[q.row][q.item]
			}
			mean := sum / float64(end-g)
			if halfEps > 0 {
				mean += noise.Laplace(cfg.MaxInfluence / (float64(m) * halfEps))
			}
			for _, q := range order[g:end] {
				dst[q.row][q.item] = mean
			}
		}
	}
	candidate := make([][]float64, len(evalUsers))
	for k := range candidate {
		candidate[k] = make([]float64, ni)
	}
	bestScore := -1.0
	for _, m := range cfg.groupSizes() {
		if m < 1 {
			return nil, fmt.Errorf("mechanism: group size %d < 1", m)
		}
		smooth(m, candidate)
		score := metrics.MeanNDCGDense(candidate, truth, gsSelectN)
		if score > bestScore {
			bestScore = score
			g.chosenM = m
			if g.smoothed == nil {
				g.smoothed = make([][]float64, len(evalUsers))
				for k := range g.smoothed {
					g.smoothed[k] = make([]float64, ni)
				}
			}
			for k := range candidate {
				copy(g.smoothed[k], candidate[k])
			}
		}
	}
	telemetry.Budget().Record(telemetry.ReleaseEvent{
		Mechanism:   "gs",
		Epsilon:     float64(cfg.Eps),
		Sensitivity: cfg.MaxInfluence,
		Values:      len(evalUsers) * ni,
	})
	return g, nil
}

// Name returns "gs".
func (*GS) Name() string { return "gs" }

// GroupSize reports the group size m selected during construction.
func (g *GS) GroupSize() int { return g.chosenM }

// Utilities copies the smoothed workload answers for the requested users,
// which must all have been evaluation users at construction. Unknown users
// panic: serving them would require re-running the release.
func (g *GS) Utilities(users []int32, _ []similarity.Scores, out [][]float64) {
	for k, u := range users {
		row, ok := g.rowOf[u]
		if !ok {
			panic(fmt.Sprintf("mechanism: user %d was not part of the GS release", u))
		}
		copy(out[k], g.smoothed[row])
	}
}
