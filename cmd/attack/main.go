// Command attack mounts the §2.3 Sybil attack against a recommender built
// from TSV edge lists and reports how much of the victim's private
// preference list leaks, with and without the paper's protection.
//
// Usage:
//
//	attack -social data/social.tsv -prefs data/preferences.tsv \
//	       -victim 17 -measure CN -eps 1.0,0.1 -trials 5
//
// The tool is the measurement companion to cmd/recserve: run it against the
// same data you plan to serve to see what is at stake.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"socialrec/internal/attack"
	"socialrec/internal/dataset"
	"socialrec/internal/dp"
	"socialrec/internal/similarity"
)

func main() {
	var (
		socialPath = flag.String("social", "", "path to social edge TSV (required)")
		prefsPath  = flag.String("prefs", "", "path to preference edge TSV (required)")
		victimTok  = flag.String("victim", "", "victim user token (required)")
		measureArg = flag.String("measure", "CN", "similarity measure: CN, GD, AA or KZ")
		epsArg     = flag.String("eps", "1.0,0.1", "comma-separated privacy budgets to test")
		trials     = flag.Int("trials", 5, "independent private releases to average over")
		runs       = flag.Int("runs", 5, "Louvain restarts per release")
		seed       = flag.Int64("seed", 1, "master seed")
	)
	flag.Parse()
	if *socialPath == "" || *prefsPath == "" || *victimTok == "" {
		fatalf("-social, -prefs and -victim are required")
	}
	if *trials < 1 {
		// The private rows are means over -trials releases.
		fatalf("-trials must be at least 1")
	}

	m, err := similarity.ByName(*measureArg)
	if err != nil {
		fatalf("%v", err)
	}

	sf, err := os.Open(*socialPath)
	if err != nil {
		fatalf("%v", err)
	}
	social, userIDs, err := dataset.ReadSocialTSV(sf)
	_ = sf.Close()
	if err != nil {
		fatalf("parsing %s: %v", *socialPath, err)
	}
	victim, ok := userIDs[*victimTok]
	if !ok {
		fatalf("unknown victim %q", *victimTok)
	}
	pf, err := os.Open(*prefsPath)
	if err != nil {
		fatalf("%v", err)
	}
	raw, itemIDs, err := dataset.ReadPreferenceTSV(pf, userIDs)
	_ = pf.Close()
	if err != nil {
		fatalf("parsing %s: %v", *prefsPath, err)
	}
	prefs, _, err := dataset.BuildPreferences(social.NumUsers(), len(itemIDs), raw, 1)
	if err != nil {
		fatalf("%v", err)
	}
	if prefs.UserDegree(victim) == 0 {
		fatalf("victim %q has no preference edges to steal", *victimTok)
	}

	chain := attack.ChainLengthFor(m)
	top, err := attack.Plan(social, victim, chain)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("victim %s: %d private edges; measure %s, Sybil chain of %d\n",
		*victimTok, prefs.UserDegree(victim), m.Name(), chain)

	exact, err := attack.RunExact(top, prefs, m)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("non-private recommender:   %5.1f%% recovered\n", 100*exact)

	for _, tok := range strings.Split(*epsArg, ",") {
		e, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			fatalf("bad -eps entry %q: %v", tok, err)
		}
		var total float64
		for i := 0; i < *trials; i++ {
			hit, err := attack.RunPrivate(top, prefs, m, dp.Epsilon(e), *runs, *seed+int64(i))
			if err != nil {
				fatalf("%v", err)
			}
			total += hit
		}
		fmt.Printf("private, epsilon=%-7g  %5.1f%% recovered (mean of %d releases)\n",
			e, 100*total/float64(*trials), *trials)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "attack: "+format+"\n", args...)
	os.Exit(1)
}
