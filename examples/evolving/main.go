// Evolving: serving recommendations as the network grows, without blowing
// the privacy budget — the paper's §7 dynamic-graphs future work, made
// concrete with internal/dynamic.Updater.
//
//	go run ./examples/evolving
//
// Every new user, friendship and preference is appended to a mutation
// write-ahead log. Each week the updater folds the new records in and
// publishes a fresh ε_r-differentially-private release into a release
// store. Releases cover (mostly) the same preference edges, so they
// compose *sequentially*: k releases cost k·ε_r. The updater owns a
// lifetime budget, journals each spend before charging it, re-clusters for
// free (the social graph is public), and refuses the release that would
// overdraw — turning the paper's theoretical caveat into an enforced
// invariant. Everything lives in a temporary directory removed at exit.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"socialrec"
	"socialrec/internal/dynamic"
	"socialrec/internal/generator"
	"socialrec/internal/graph"
	"socialrec/internal/release"
	"socialrec/internal/wal"
)

func main() {
	dir, err := os.MkdirTemp("", "evolving")
	if err != nil {
		log.Fatal(err)
	}
	err = run(dir)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		log.Fatal(err)
	}
}

func run(dir string) error {
	// The network the service grows into; week w admits its first
	// weeks[w] users, their friendships and their preferences.
	weeks := []int{200, 260, 320, 380, 440}
	social, comm, err := generator.Social(generator.SocialConfig{
		NumUsers: 440, NumCommunities: 5, AvgDegree: 10, IntraFraction: 0.85, Seed: 40,
	})
	if err != nil {
		return err
	}
	prefs, err := generator.Preferences(social, comm, generator.PreferenceConfig{
		NumItems: 600, NumEdges: 15 * 440, CommunityAffinity: 0.7, PopularitySkew: 1.0, Seed: 41,
	})
	if err != nil {
		return err
	}

	quiet := func(string, ...any) {}
	wlog, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Logf: quiet})
	if err != nil {
		return err
	}
	defer wlog.Close()
	store, err := release.OpenStore(filepath.Join(dir, "releases"), release.StoreOptions{Logf: quiet})
	if err != nil {
		return err
	}
	upd, err := dynamic.OpenUpdater(dynamic.UpdaterConfig{
		TotalBudget: 1.0, // lifetime ε for every user's preference edges
		PerRelease:  0.3, // spent by each published release
		LouvainRuns: 3,
		Seed:        17,
		JournalPath: filepath.Join(dir, "updater.journal"),
		WAL:         wlog,
		Store:       store,
	})
	if err != nil {
		return err
	}

	for i := 0; i < prefs.NumItems(); i++ {
		if _, err := wlog.Append(wal.OpAddItem, int64(i), 0); err != nil {
			return err
		}
	}
	admitted, edges := 0, 0
	for week, users := range weeks {
		n, err := admit(wlog, social, prefs, admitted, users)
		if err != nil {
			return err
		}
		admitted, edges = users, edges+n
		fmt.Printf("week %d: %4d users, %5d preference edges — ", week+1, users, edges)
		d, err := upd.Advance()
		if err != nil {
			fmt.Printf("RELEASE REFUSED: %v\n", err)
			continue
		}
		fmt.Printf("published %s release v%d (spent ε=%.1f of %.1f)\n",
			d.Kind, d.Version, float64(upd.Spent()), 1.0)
		if err := showTop(store, social, users, 0); err != nil {
			return err
		}
	}

	fmt.Println()
	fmt.Printf("final state: %d releases, ε spent %.1f, remaining %.1f\n",
		upd.Releases(), float64(upd.Spent()), float64(upd.Remaining()))
	fmt.Println()
	fmt.Println("Weeks 1-3 fit the budget (3 × 0.3 ≤ 1.0); weeks 4-5 are refused —")
	fmt.Println("the service keeps serving from the week-3 release instead of silently")
	fmt.Println("degrading everyone's privacy. Recommendations remain available the")
	fmt.Println("whole time: serving is post-processing and costs nothing.")
	return nil
}

// admit logs users [from, to): each user, then every friendship that
// reaches back to an already-admitted user, then the user's preferences.
// It returns how many preference edges it logged.
func admit(wlog *wal.Log, social *graph.Social, prefs *graph.Preference, from, to int) (int, error) {
	n := 0
	for u := from; u < to; u++ {
		if _, err := wlog.Append(wal.OpAddUser, int64(u), 0); err != nil {
			return n, err
		}
		for _, v := range social.Neighbors(u) {
			if int(v) < u {
				if _, err := wlog.Append(wal.OpAddSocial, int64(u), int64(v)); err != nil {
					return n, err
				}
			}
		}
		for _, it := range prefs.Items(u) {
			if _, err := wlog.Append(wal.OpAddPref, int64(u), int64(it)); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, wlog.Sync()
}

// showTop serves the store's newest release over the admitted users'
// social graph and prints one user's top 3.
func showTop(store *release.Store, social *graph.Social, users, user int) error {
	rel, _, _, err := store.LoadLatestContext(context.Background())
	if err != nil {
		return err
	}
	b := graph.NewSocialBuilder(users)
	for u := 0; u < users; u++ {
		for _, v := range social.Neighbors(u) {
			if int(v) < u {
				if err := b.AddEdge(u, int(v)); err != nil {
					return err
				}
			}
		}
	}
	engine, err := socialrec.EngineFromRelease(rel, b.Build())
	if err != nil {
		return err
	}
	recs, err := engine.Recommend(user, 3)
	if err != nil {
		return err
	}
	fmt.Printf("         user %d top-3: ", user)
	for i, r := range recs {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("item %d (%.1f)", r.Item, r.Utility)
	}
	fmt.Println()
	return nil
}
