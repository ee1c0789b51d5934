package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"socialrec"
	"socialrec/internal/core"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/release"
	"socialrec/internal/simcache"
	"socialrec/internal/similarity"
)

// servedRow is one served recommendation list as the server encodes it.
type servedRow struct {
	User            string `json:"user"`
	Cluster         int    `json:"cluster"`
	Recommendations []struct {
		Item    string  `json:"item"`
		Utility float64 `json:"utility"`
	} `json:"recommendations"`
}

// unitKey identifies one distinct served answer: the encoded row, the list
// length asked for, and the versions that may have served it.
type unitKey struct {
	row    string
	n      int
	lo, hi uint64
}

// verifier checks every distinct served answer against the unsharded
// socialrec.Engine for the same release: identical items, bit-identical
// utilities, and the same cluster.
type verifier struct {
	in    *inputs
	seen  map[unitKey]struct{}
	units []unitKey
	// corrupt flips one bit of the first served utility before checking.
	corrupt bool
}

func newVerifier(in *inputs, corrupt bool) *verifier {
	return &verifier{in: in, seen: map[unitKey]struct{}{}, corrupt: corrupt}
}

// add records a phase's successful rows.
func (v *verifier) add(arr []arrival, outs []outcome) {
	for i := range arr {
		rs, ok := rows(&arr[i], &outs[i])
		if !ok {
			continue
		}
		for _, r := range rs {
			k := unitKey{string(r), listN, outs[i].vLo, outs[i].vHi}
			if _, dup := v.seen[k]; !dup {
				v.seen[k] = struct{}{}
				v.units = append(v.units, k)
			}
		}
	}
}

// refSource returns the reference engine for a served version, and the
// versions that may have served a unit.
type refSource struct {
	candidates func(lo, hi uint64) []uint64
	engine     func(ctx context.Context, version uint64) (*socialrec.Engine, error)
}

// staticRefs serves one reference engine for every unit.
func staticRefs(e *socialrec.Engine) refSource {
	return refSource{
		candidates: func(uint64, uint64) []uint64 { return []uint64{0} },
		engine:     func(context.Context, uint64) (*socialrec.Engine, error) { return e, nil },
	}
}

// historyRefs rebuilds the reference for each installed version from the
// store: the reference is rebuilt after each reload.
func historyRefs(u *updateState, social *graph.Social) refSource {
	hist := u.historyCopy()
	byVersion := map[uint64]installed{}
	for _, h := range hist {
		byVersion[h.version] = h
	}
	var (
		cachedV   uint64
		cachedEng *socialrec.Engine
	)
	return refSource{
		candidates: func(lo, hi uint64) []uint64 {
			var out []uint64
			for _, h := range hist {
				if h.version >= lo && h.version <= hi {
					out = append(out, h.version)
				}
			}
			return out
		},
		engine: func(ctx context.Context, v uint64) (*socialrec.Engine, error) {
			if cachedEng != nil && cachedV == v {
				return cachedEng, nil
			}
			h, ok := byVersion[v]
			if !ok {
				return nil, fmt.Errorf("perfbench: no installed version %d", v)
			}
			rel, err := u.releaseAt(ctx, h)
			if err != nil {
				return nil, err
			}
			e, err := socialrec.EngineFromRelease(rel, social)
			if err != nil {
				return nil, err
			}
			cachedV, cachedEng = v, e
			return e, nil
		},
	}
}

// check verifies every unit and returns how many were checked, how many
// matched no candidate version, and how many were torn: the list matches
// one version and the cluster field another. The server reads the Hot slot
// once for the list and again for the cluster, so a swap between the two
// reads tears the answer; a torn answer is reported, not failed.
func (v *verifier) check(ctx context.Context, refs refSource) (checked, mismatches, torn int, err error) {
	units := append([]unitKey(nil), v.units...)
	// Group by version so each reference is built once.
	sort.SliceStable(units, func(i, j int) bool {
		if units[i].lo != units[j].lo {
			return units[i].lo < units[j].lo
		}
		return units[i].hi < units[j].hi
	})
	type refKey struct {
		v       uint64
		user, n int
	}
	want := map[refKey][]core.Recommendation{}
	for i, u := range units {
		var row servedRow
		if err := json.Unmarshal([]byte(u.row), &row); err != nil {
			return checked, mismatches, torn, fmt.Errorf("perfbench: decoding served row: %w", err)
		}
		if v.corrupt && i == 0 && len(row.Recommendations) > 0 {
			r := &row.Recommendations[0]
			r.Utility = math.Float64frombits(math.Float64bits(r.Utility) ^ 1)
		}
		user, ok := v.in.userIDs[row.User]
		if !ok {
			mismatches++
			continue
		}
		checked++
		match, listOK, clusterOK := false, false, false
		for _, ver := range refs.candidates(u.lo, u.hi) {
			e, err := refs.engine(ctx, ver)
			if err != nil {
				return checked, mismatches, torn, err
			}
			k := refKey{ver, user, u.n}
			recs, ok := want[k]
			if !ok {
				if recs, err = e.Recommend(user, u.n); err != nil {
					return checked, mismatches, torn, err
				}
				want[k] = recs
			}
			l, c := sameList(&row, recs), row.Cluster == e.ClusterOf(user)
			if l && c {
				match = true
				break
			}
			listOK, clusterOK = listOK || l, clusterOK || c
		}
		switch {
		case match:
		case listOK && clusterOK:
			torn++
		default:
			mismatches++
		}
	}
	return checked, mismatches, torn, nil
}

func sameList(row *servedRow, recs []core.Recommendation) bool {
	if len(row.Recommendations) != len(recs) {
		return false
	}
	for i, r := range recs {
		got := row.Recommendations[i]
		if got.Item != strconv.Itoa(int(r.Item)) || math.Float64bits(got.Utility) != math.Float64bits(r.Utility) {
			return false
		}
	}
	return true
}

func sameRecs(a, b []core.Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Item != b[i].Item || math.Float64bits(a[i].Utility) != math.Float64bits(b[i].Utility) {
			return false
		}
	}
	return true
}

// replayStats is the per-call cost of the engine's three phases, measured
// by replaying served calls through the public calls that make them up.
type replayStats struct {
	simUS, avgUS, topUS, residUS []float64
	setSize, touched             []float64
	calls, mismatches            int
}

// replay runs calls, in the order they were served, through a fresh
// similarity cache of the serving capacity, (*mechanism.Cluster).Utilities
// over the serving release, and core.TopN. Each replayed list must equal the
// served one; the engine call's time minus the three phases is its residual.
func replay(calls []engineCall, rel *release.Release, social *graph.Social, rs *replayStats) error {
	m, err := similarity.ByName(rel.Measure)
	if err != nil {
		return err
	}
	est, err := mechanism.NewClusterFromRelease(rel.Clusters, rel.NumItems, rel.Avg)
	if err != nil {
		return err
	}
	cache := simcache.New(social, m, cacheCap)
	row := make([]float64, rel.NumItems)
	users := make([]int32, 1)
	sims := make([]similarity.Scores, 1)
	out := [][]float64{row}
	seen := map[int]struct{}{}
	for _, c := range calls {
		users[0] = int32(c.user)
		t0 := time.Now()
		s := cache.Similar(users[0])
		t1 := time.Now()
		clear(row)
		sims[0] = s
		t2 := time.Now()
		est.Utilities(users, sims, out)
		t3 := time.Now()
		recs := core.TopN(row, c.n, math.Inf(-1))
		t4 := time.Now()
		rs.calls++
		if !sameRecs(recs, c.recs) {
			rs.mismatches++
		}
		sim, avg, top := t1.Sub(t0), t3.Sub(t2), t4.Sub(t3)
		rs.simUS = append(rs.simUS, us(sim))
		rs.avgUS = append(rs.avgUS, us(avg))
		rs.topUS = append(rs.topUS, us(top))
		rs.residUS = append(rs.residUS, us(c.dur()-sim-avg-top))
		rs.setSize = append(rs.setSize, float64(len(s.Users)))
		clear(seen)
		for _, v := range s.Users {
			seen[rel.Clusters.Cluster(int(v))] = struct{}{}
		}
		rs.touched = append(rs.touched, float64(len(seen)))
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
