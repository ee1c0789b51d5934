// Command evaluate compares a private recommender configuration against the
// exact recommender on the same data, reporting the full metric suite:
// NDCG@N, precision/recall, mean Jaccard overlap of the lists, catalog
// coverage and recommendation concentration (Gini). It answers the
// deployment question the figures compress away: "at my ε, what do my users
// actually see?"
//
// Usage:
//
//	evaluate -social data/social.tsv -prefs data/preferences.tsv \
//	         -epsilon 0.5 -n 10 -sample 300
//
// -lenient quarantines malformed TSV rows (reported on stderr) instead of
// failing on the first one. The release is built in-process and follows
// release.Recipe with -runs Louvain restarts and -seed; the evaluated
// sample is drawn at -seed+200.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"socialrec"
	"socialrec/internal/core"
	"socialrec/internal/dataset"
	"socialrec/internal/experiment"
	"socialrec/internal/mechanism"
	"socialrec/internal/metrics"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

func main() {
	var (
		socialPath = flag.String("social", "", "path to social edge TSV (required)")
		prefsPath  = flag.String("prefs", "", "path to preference edge TSV (required)")
		epsArg     = flag.String("epsilon", "0.5", "privacy budget ε, or 'inf'")
		n          = flag.Int("n", 10, "list length")
		sample     = flag.Int("sample", 300, "users to evaluate")
		measure    = flag.String("measure", "CN", "similarity measure: CN, GD, AA or KZ")
		seed       = flag.Int64("seed", 1, "seed")
		lenient    = flag.Bool("lenient", false, "quarantine malformed TSV rows instead of failing on the first")
		runs       = flag.Int("runs", 10, "Louvain restarts")
	)
	flag.Parse()
	if *socialPath == "" || *prefsPath == "" {
		fatalf("-social and -prefs are required")
	}
	if *sample < 1 {
		// 0 would average the metrics over no users (NaN), and a
		// negative count would panic in SampleUsers.
		fatalf("-sample must be at least 1")
	}
	eps := math.Inf(1)
	if *epsArg != "inf" {
		var err error
		eps, err = strconv.ParseFloat(*epsArg, 64)
		if err != nil {
			fatalf("bad -epsilon %q: %v", *epsArg, err)
		}
	}

	m, err := similarity.ByName(*measure)
	if err != nil {
		fatalf("%v", err)
	}

	ds := loadDataset(*socialPath, *prefsPath, *lenient)
	private, err := socialrec.NewEngineFromGraphs(ds.Social, ds.Prefs, socialrec.Config{
		Measure: *measure, Epsilon: eps, LouvainRuns: *runs, Seed: *seed,
	})
	if err != nil {
		fatalf("%v", err)
	}
	evalUsers := experiment.SampleUsers(ds.Social.NumUsers(), *sample, *seed+200)
	// Per-user scoring needs true utilities; recompute them via the
	// measure (public data).
	sims := similarity.ComputeAll(ds.Social, m, evalUsers, 0)

	exact, err := socialrec.NewExactEngineFromGraphs(ds.Social, ds.Prefs, *measure)
	if err != nil {
		fatalf("%v", err)
	}

	users := make([]int, len(evalUsers))
	for i, u := range evalUsers {
		users[i] = int(u)
	}
	// Both list sets are computed under one root, so the engine's phase
	// spans reach the stage table printed below.
	ctx, listSpan := trace.Start(context.Background(), "evaluate_lists")
	privLists, err := private.RecommendBatchContext(ctx, users, *n)
	if err != nil {
		fatalf("%v", err)
	}
	exactLists, err := exact.RecommendBatchContext(ctx, users, *n)
	if err != nil {
		fatalf("%v", err)
	}
	listSpan.End()

	var ndcg, prec, rec, jac float64
	eq1 := mechanism.NewExact(ds.Prefs)
	truth := make([]float64, ds.Prefs.NumItems())
	truths := [][]float64{truth}
	for k := range users {
		clear(truth)
		eq1.Utilities(evalUsers[k:k+1], sims[k:k+1], truths)
		ndcg += metrics.NDCGAtN(privLists[k], truth, *n)
		p, r := metrics.PrecisionRecallAtN(privLists[k], truth, *n)
		prec += p
		rec += r
		jac += metrics.JaccardOverlap(privLists[k], exactLists[k])
	}
	cnt := float64(len(users))

	toCore := func(lists [][]socialrec.Recommendation) [][]core.Recommendation {
		out := make([][]core.Recommendation, len(lists))
		for i, l := range lists {
			out[i] = l
		}
		return out
	}
	fmt.Printf("evaluated %d users, N=%d, measure=%s, epsilon=%s (%d clusters)\n",
		len(users), *n, *measure, *epsArg, private.NumClusters())
	fmt.Printf("  NDCG@%d:              %.3f\n", *n, ndcg/cnt)
	fmt.Printf("  precision@%d:         %.3f\n", *n, prec/cnt)
	fmt.Printf("  recall@%d:            %.3f\n", *n, rec/cnt)
	fmt.Printf("  Jaccard vs exact:     %.3f\n", jac/cnt)
	fmt.Printf("  catalog coverage:     %.3f (private) vs %.3f (exact)\n",
		metrics.CatalogCoverage(toCore(privLists), ds.Prefs.NumItems()),
		metrics.CatalogCoverage(toCore(exactLists), ds.Prefs.NumItems()))
	fmt.Printf("  recommendation Gini:  %.3f (private) vs %.3f (exact)\n",
		metrics.RecommendationGini(toCore(privLists)),
		metrics.RecommendationGini(toCore(exactLists)))
	fmt.Printf("\npipeline stage timings:\n%s", telemetry.Stages().Table())
	fmt.Printf("\nprivacy budget ledger:\n%s", telemetry.Budget().Snapshot())
}

// loadDataset reads and assembles the two graphs, honoring -lenient by
// quarantining malformed rows (summarized on stderr) instead of aborting.
// Reading the social graph is a graph_load root span.
func loadDataset(socialPath, prefsPath string, lenient bool) *dataset.Dataset {
	opts := dataset.ReadOptions{Lenient: lenient}
	_, loadSpan := trace.Start(context.Background(), "graph_load")
	sf, err := os.Open(socialPath)
	if err != nil {
		fatalf("%v", err)
	}
	social, userIDs, srep, err := dataset.ReadSocialTSVOpts(sf, opts)
	_ = sf.Close()
	if err != nil {
		fatalf("parsing %s: %v", socialPath, err)
	}
	if srep.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "evaluate: %s: quarantined %d malformed row(s):\n%s\n", socialPath, srep.Dropped, srep.Summary())
	}
	loadSpan.End()
	pf, err := os.Open(prefsPath)
	if err != nil {
		fatalf("%v", err)
	}
	raw, itemIDs, prep, err := dataset.ReadPreferenceTSVOpts(pf, userIDs, opts)
	_ = pf.Close()
	if err != nil {
		fatalf("parsing %s: %v", prefsPath, err)
	}
	if prep.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "evaluate: %s: quarantined %d malformed row(s):\n%s\n", prefsPath, prep.Dropped, prep.Summary())
	}
	prefs, _, err := dataset.BuildPreferences(social.NumUsers(), len(itemIDs), raw, 1)
	if err != nil {
		fatalf("%v", err)
	}
	return &dataset.Dataset{Name: socialPath, Social: social, Prefs: prefs}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "evaluate: "+format+"\n", args...)
	os.Exit(1)
}
