// Command communities runs the paper's clustering phase on a social graph:
// Louvain with multi-level refinement, best modularity of -runs restarts
// (§6.2 uses 10). It prints the §6.2-style clustering report and optionally
// writes the user → cluster assignment.
//
// Usage:
//
//	communities -social data/social.tsv -runs 10 -out clusters.tsv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"socialrec/internal/community"
	"socialrec/internal/dataset"
)

func main() {
	var (
		socialPath = flag.String("social", "", "path to social edge TSV (required)")
		runs       = flag.Int("runs", 10, "Louvain restarts; best modularity wins (<= 0 means the paper's 10)")
		seed       = flag.Int64("seed", 1, "seed for node orderings")
		out        = flag.String("out", "", "optional path for the user→cluster TSV")
		algorithm  = flag.String("algorithm", "louvain", "louvain or labelprop")
		noRefine   = flag.Bool("no-refine", false, "disable multi-level refinement (ablation)")
	)
	flag.Parse()
	if *socialPath == "" {
		fatalf("-social is required")
	}
	if *runs <= 0 {
		*runs = 10
	}

	f, err := os.Open(*socialPath)
	if err != nil {
		fatalf("%v", err)
	}
	g, _, err := dataset.ReadSocialTSV(f)
	_ = f.Close()
	if err != nil {
		fatalf("parsing %s: %v", *socialPath, err)
	}

	var clusters *community.Clustering
	var q float64
	switch *algorithm {
	case "louvain":
		clusters, q = community.BestOf(g, *runs, *seed, community.Options{DisableRefinement: *noRefine})
	case "labelprop":
		clusters = community.LabelPropagation(g, *seed, 0)
		q = community.Modularity(g, clusters)
	default:
		fatalf("unknown -algorithm %q", *algorithm)
	}

	mean, std := clusters.MeanSize()
	fmt.Printf("users:            %d\n", g.NumUsers())
	fmt.Printf("edges:            %d\n", g.NumEdges())
	fmt.Printf("clusters:         %d\n", clusters.NumClusters())
	fmt.Printf("mean size:        %.1f (std %.1f)\n", mean, std)
	fmt.Printf("largest cluster:  %.1f%% of users\n", 100*clusters.LargestFraction())
	fmt.Printf("modularity:       %.4f\n", q)

	sizes := clusters.Sizes()
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	top := sizes
	if len(top) > 10 {
		top = top[:10]
	}
	fmt.Printf("largest sizes:    %v\n", top)

	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		w := bufio.NewWriter(of)
		for u := 0; u < clusters.NumUsers(); u++ {
			fmt.Fprintf(w, "%d\t%d\n", u, clusters.Cluster(u))
		}
		if err := w.Flush(); err != nil {
			fatalf("writing %s: %v", *out, err)
		}
		if err := of.Close(); err != nil {
			fatalf("closing %s: %v", *out, err)
		}
		fmt.Printf("assignment written to %s\n", *out)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "communities: "+format+"\n", args...)
	os.Exit(1)
}
