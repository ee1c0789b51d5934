// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§6) on the calibrated synthetic datasets.
//
// Usage:
//
//	experiments -exp all                # everything (slow)
//	experiments -exp table1             # Table 1 dataset statistics
//	experiments -exp fig1               # Last.fm-like NDCG@N vs ε sweep
//	experiments -exp fig2               # Flixster-like NDCG@N vs ε sweep
//	experiments -exp fig3               # degree vs approximation error
//	experiments -exp fig4               # baseline mechanism comparison
//	experiments -exp clusters           # §6.2 clustering statistics
//	experiments -exp decompose          # Eq. 5 approximation/perturbation split
//	experiments -exp release            # checkpointed offline release pipeline
//	experiments -exp stream             # crash-safe streaming update drill
//
// -repeats, -sample and -runs trade fidelity for speed; the paper's own
// settings are -repeats 10 and (for the big dataset) -sample 10000. An
// unknown -exp, or a flag the selected experiment does not read, exits 1
// before any work.
//
// The release experiment runs the offline path (load → sample →
// similarity → release → persist) as resumable checkpointed steps
// (experiment.RunRelease); its release step is release.Recipe.Build, so it
// writes the bytes recserve's -prefs build writes for the same data, ε and
// seed. With -checkpoint-dir, completed steps are checkpointed and a rerun
// resumes from the first invalidated step; -fresh discards checkpoints.
// -faults arms a deterministic fault-injection point (e.g. fs.rename) so
// crash/resume drills are scriptable: the interrupted run exits non-zero,
// the resumed run must produce the byte-identical release with the
// ε-spend journaled exactly once.
//
// The stream experiment drives the online path instead: a deterministic
// mutation stream is appended to a durable WAL in batches, and the
// streaming updater decides per batch whether the accumulated drift is
// worth a full or delta release. -stream-dir holds the WAL, the release
// store and the intent journal; rerunning against the same directory
// resumes exactly where the previous run (or crash) stopped. The same
// -faults/-fault-after arming applies, so scripts/wal_chaos.sh can kill
// the drill at any filesystem point and assert the resumed run converges
// to the byte-identical store with Σε spent exactly once.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"time"

	"socialrec/internal/dataset"
	"socialrec/internal/dp"
	"socialrec/internal/dynamic"
	"socialrec/internal/experiment"
	"socialrec/internal/faults"
	"socialrec/internal/generator"
	"socialrec/internal/pipeline"
	"socialrec/internal/release"
	"socialrec/internal/similarity"
	"socialrec/internal/splitmix"
	"socialrec/internal/telemetry"
	"socialrec/internal/wal"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, table1, fig1, fig2, fig3, fig4, clusters, decompose, release or stream")
		repeats = flag.Int("repeats", 3, "noise repeats per measurement (paper: 10)")
		sample  = flag.Int("sample", 400, "evaluation-user sample size")
		runs    = flag.Int("runs", 10, "Louvain restarts")
		seed    = flag.Int64("seed", 7, "master seed")
		lrmRank = flag.Int("lrm-rank", 200, "decomposition rank for the LRM comparator")
		csvDir  = flag.String("csv-dir", "", "also write tidy CSVs (fig1.csv, ...) into this directory")

		preset     = flag.String("preset", "lastfm", "dataset preset for -exp release: lastfm, flixster or tiny")
		epsArg     = flag.Float64("eps", 0.5, "release budget ε for -exp release; ε per publish for -exp stream")
		ckptDir    = flag.String("checkpoint-dir", "", "checkpoint stage outputs here; reruns resume from the first invalidated stage")
		fresh      = flag.Bool("fresh", false, "discard existing checkpoints before running")
		releaseDir = flag.String("release-dir", "", "persist the final release into a release store here")
		faultPoint = flag.String("faults", "", "arm a fault-injection point for crash drills (fs.create, fs.write, fs.sync, fs.close, fs.rename, fs.syncdir, ...)")
		faultAfter = flag.Uint64("fault-after", 0, "let the armed point succeed this many times before it fires")

		streamDir     = flag.String("stream-dir", "", "state directory for -exp stream: WAL, release store and intent journal live here")
		streamBatches = flag.Int("stream-batches", 6, "mutation batches -exp stream drives through the updater")
		streamBatch   = flag.Int("stream-batch", 40, "mutations per batch for -exp stream")
	)
	flag.Parse()
	if err := checkFlags(*exp); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	writeCSV := func(name string, emit func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}

	opts := experiment.Opts{Repeats: *repeats, EvalSample: *sample, LouvainRuns: *runs, Seed: *seed}
	run := func(name string, f func() error) {
		t0 := time.Now()
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(t0).Seconds())
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		run("Table 1: dataset statistics", func() error {
			out, err := experiment.Table1(*seed)
			if err != nil {
				return err
			}
			fmt.Print(out)
			return nil
		})
	}
	if want("clusters") {
		run("§6.2: clustering statistics", func() error {
			for _, p := range []generator.Preset{generator.LastFMLike(*seed), generator.FlixsterLike(*seed)} {
				cr, err := experiment.ClusterStats(p, opts)
				if err != nil {
					return err
				}
				fmt.Print(cr.Format())
			}
			return nil
		})
	}
	if want("fig1") {
		run("Fig 1: Last.fm-like NDCG@N vs ε", func() error {
			sw, err := experiment.NDCGSweep(generator.LastFMLike(*seed), experiment.DefaultEps(), experiment.DefaultNs(), opts)
			if err != nil {
				return err
			}
			fmt.Print(sw.Format())
			return writeCSV("fig1.csv", sw.WriteCSV)
		})
	}
	if want("fig2") {
		run("Fig 2: Flixster-like NDCG@N vs ε", func() error {
			sw, err := experiment.NDCGSweep(generator.FlixsterLike(*seed), experiment.DefaultEps(), experiment.DefaultNs(), opts)
			if err != nil {
				return err
			}
			fmt.Print(sw.Format())
			return writeCSV("fig2.csv", sw.WriteCSV)
		})
	}
	if want("fig3") {
		run("Fig 3: degree vs approximation error", func() error {
			for i, p := range []generator.Preset{generator.LastFMLike(*seed), generator.FlixsterLike(*seed)} {
				da, err := experiment.DegreeVsAccuracy(p, opts)
				if err != nil {
					return err
				}
				fmt.Print(da.Format())
				fmt.Printf("  correlation(log degree, NDCG): %.3f\n", da.Correlation())
				if err := writeCSV(fmt.Sprintf("fig3%c.csv", 'a'+i), da.WriteCSV); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if want("decompose") {
		run("Eq. 5: error decomposition", func() error {
			for _, p := range []generator.Preset{generator.LastFMLike(*seed), generator.FlixsterLike(*seed)} {
				decs, err := experiment.Decompose(p, []dp.Epsilon{1.0, 0.1}, 50, opts)
				if err != nil {
					return err
				}
				for _, d := range decs {
					fmt.Print(d.Format())
				}
			}
			return nil
		})
	}
	if *exp == "release" {
		run("checkpointed release pipeline", func() error {
			return runReleasePipeline(releaseFlags{
				preset:     *preset,
				eps:        *epsArg,
				sample:     *sample,
				runs:       *runs,
				seed:       *seed,
				ckptDir:    *ckptDir,
				fresh:      *fresh,
				releaseDir: *releaseDir,
				faultPoint: *faultPoint,
				faultAfter: *faultAfter,
			})
		})
	}
	if *exp == "stream" {
		run("crash-safe streaming update drill", func() error {
			return runStreamDrill(streamFlags{
				dir:        *streamDir,
				batches:    *streamBatches,
				perBatch:   *streamBatch,
				eps:        *epsArg,
				runs:       *runs,
				seed:       *seed,
				faultPoint: *faultPoint,
				faultAfter: *faultAfter,
			})
		})
	}
	if want("fig4") {
		run("Fig 4: baseline mechanisms on Last.fm-like", func() error {
			bl, err := experiment.BaselineComparison(
				generator.LastFMLike(*seed), []dp.Epsilon{1.0, 0.1}, *lrmRank, opts)
			if err != nil {
				return err
			}
			fmt.Print(bl.Format())
			return writeCSV("fig4.csv", bl.WriteCSV)
		})
	}

	fmt.Println("=== pipeline stage timings ===")
	fmt.Print(telemetry.Stages().Table())
	fmt.Printf("\n=== privacy budget ledger ===\n%s\n", telemetry.Budget().Snapshot())
}

// groupFlags lists, per experiment group, the flags its experiments read
// besides -exp. The figures group is every paper table and figure.
var groupFlags = map[string][]string{
	"figures": {"repeats", "sample", "runs", "seed", "lrm-rank", "csv-dir"},
	"release": {"preset", "eps", "sample", "runs", "seed", "checkpoint-dir", "fresh", "release-dir", "faults", "fault-after"},
	"stream":  {"stream-dir", "stream-batches", "stream-batch", "eps", "runs", "seed", "faults", "fault-after"},
}

// checkFlags refuses an unknown experiment and any flag set on the command
// line that the selected experiment would ignore.
func checkFlags(exp string) error {
	group := exp
	switch exp {
	case "all", "table1", "clusters", "fig1", "fig2", "fig3", "fig4", "decompose":
		group = "figures"
	case "release", "stream":
	default:
		return fmt.Errorf("unknown -exp %q (want all, table1, fig1, fig2, fig3, fig4, clusters, decompose, release or stream)", exp)
	}
	var err error
	flag.Visit(func(f *flag.Flag) {
		if err == nil && f.Name != "exp" && !slices.Contains(groupFlags[group], f.Name) {
			err = fmt.Errorf("-exp %s does not read -%s", exp, f.Name)
		}
	})
	return err
}

// releaseFlags carries the -exp release configuration.
type releaseFlags struct {
	preset     string
	eps        float64
	sample     int
	runs       int
	seed       int64
	ckptDir    string
	fresh      bool
	releaseDir string
	faultPoint string
	faultAfter uint64
}

// runReleasePipeline executes the offline release path as checkpointed
// steps.
func runReleasePipeline(f releaseFlags) error {
	var p generator.Preset
	switch f.preset {
	case "lastfm":
		p = generator.LastFMLike(f.seed)
	case "flixster":
		p = generator.FlixsterLike(f.seed)
	case "tiny":
		p = generator.TinyTest(f.seed)
	default:
		return fmt.Errorf("unknown -preset %q (want lastfm, flixster or tiny)", f.preset)
	}
	h := fnv.New64a()
	h.Write([]byte(p.Name))
	spec := experiment.ReleaseSpec{
		Load: func(ctx context.Context) (*dataset.Dataset, error) {
			ds, _, err := experiment.BuildDataset(p)
			return ds, err
		},
		DatasetFingerprint: h.Sum64(),
		Eps:                dp.Epsilon(f.eps),
		EvalSample:         f.sample,
		LouvainRuns:        f.runs,
		Seed:               f.seed,
		StoreDir:           f.releaseDir,
	}
	opts := pipeline.Options{
		CheckpointDir: f.ckptDir,
		Fresh:         f.fresh,
		Logger:        slog.New(slog.NewTextHandler(os.Stdout, nil)),
	}
	if f.faultPoint != "" {
		reg := faults.New(f.seed)
		reg.Arm(faults.Point(f.faultPoint), faults.Plan{After: f.faultAfter, Times: 1})
		opts.FS = faults.NewFS(faults.OS{}, reg)
	}

	res, err := experiment.RunRelease(context.Background(), spec, opts)
	if err != nil {
		// An injected fault aborted the run exactly where a crash would;
		// exit non-zero so crash/resume drills can script around it.
		return err
	}

	fmt.Printf("stages: %d run, %d resumed from checkpoint\n", len(res.Stages)-res.Resumed(), res.Resumed())
	rel := res.Release
	fmt.Printf("release: eps=%g measure=%s clusters=%d items=%d\n",
		rel.Epsilon, rel.Measure, rel.Clusters.NumClusters(), rel.NumItems)
	if f.releaseDir != "" {
		fmt.Printf("persisted as version %d in %s\n", res.Version, f.releaseDir)
	}
	if f.ckptDir != "" {
		store, _, err := pipeline.OpenStore(f.ckptDir, nil)
		if err != nil {
			return err
		}
		records, skipped, err := store.Ledger()
		if err != nil {
			return err
		}
		fmt.Printf("durable ε ledger: %d record(s), Σε=%g (%d unreadable receipt(s))\n",
			len(records), pipeline.SpentEpsilon(records), len(skipped))
	}

	// Exercise the checkpoint-fed evaluation path: score the release's own
	// averages without recomputing similarities or clusterings.
	runner, err := experiment.RunnerFromState(res, similarity.CommonNeighbors{})
	if err != nil {
		return err
	}
	score, err := runner.EvaluateRelease(rel, []int{10})
	if err != nil {
		return err
	}
	fmt.Printf("NDCG@10 of the released mechanism: %.3f\n", score.Mean(10))
	return nil
}

// streamFlags carries the -exp stream configuration.
type streamFlags struct {
	dir        string
	batches    int
	perBatch   int
	eps        float64
	runs       int
	seed       int64
	faultPoint string
	faultAfter uint64
}

// mutGen deterministically generates a valid mutation stream: dense user
// and item growth first, then a mix of social edges and preference churn.
// Regenerating and discarding the first k records reproduces the exact
// generator state after k appends, which is how a resumed drill continues
// a stream the crashed run started.
//
// Churn concentrates on a small core of users (with a trickle touching
// anyone) so the updater sees realistic locality: most batches drift a
// few clusters and publish deltas, while occasional wide spread or
// population growth pushes past the full-release threshold.
type mutGen struct {
	state uint64 // SplitMix64 state: the stream is a pure function of the seed
	users int64
	items int64
}

func (g *mutGen) next(n uint64) uint64 { return splitmix.Next(&g.state) % n }

// user picks a mutation target: 85% from the core (first quarter of the
// population, at least 8 users), 15% anywhere.
func (g *mutGen) user() int64 {
	core := g.users / 4
	if core < 8 {
		core = 8
	}
	if core > g.users {
		core = g.users
	}
	if g.next(100) < 85 {
		return int64(g.next(uint64(core)))
	}
	return int64(g.next(uint64(g.users)))
}

func (g *mutGen) record() (wal.Op, int64, int64) {
	if g.users < 24 {
		a := g.users
		g.users++
		return wal.OpAddUser, a, 0
	}
	if g.items < 6 {
		a := g.items
		g.items++
		return wal.OpAddItem, a, 0
	}
	pair := func() (int64, int64) {
		a := g.user()
		b := g.user()
		if b == a {
			b = (a + 1) % g.users
		}
		return a, b
	}
	switch r := g.next(100); {
	case r < 4:
		a := g.users
		g.users++
		return wal.OpAddUser, a, 0
	case r < 7:
		a := g.items
		g.items++
		return wal.OpAddItem, a, 0
	case r < 40:
		a, b := pair()
		return wal.OpAddSocial, a, b
	case r < 46:
		a, b := pair()
		return wal.OpDelSocial, a, b
	case r < 92:
		return wal.OpAddPref, g.user(), int64(g.next(uint64(g.items)))
	default:
		return wal.OpDelPref, g.user(), int64(g.next(uint64(g.items)))
	}
}

// runStreamDrill drives the streaming update path end to end: append a
// deterministic mutation batch to the WAL, sync, let the updater decide
// whether the drift is worth a release, repeat. All state lives under
// -stream-dir, so killing the process anywhere (or letting -faults kill
// it) and rerunning resumes the stream — finishing any journaled publish
// first — and must converge to the byte-identical store a clean run
// produces.
func runStreamDrill(f streamFlags) error {
	if f.dir == "" {
		return fmt.Errorf("-exp stream requires -stream-dir")
	}
	if f.batches < 1 || f.perBatch < 1 {
		return fmt.Errorf("-stream-batches and -stream-batch must be positive")
	}
	walDir := filepath.Join(f.dir, "wal")
	relDir := filepath.Join(f.dir, "releases")
	for _, d := range []string{walDir, relDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	var fsys faults.FS = faults.OS{}
	if f.faultPoint != "" {
		reg := faults.New(f.seed)
		reg.Arm(faults.Point(f.faultPoint), faults.Plan{After: f.faultAfter, Times: 1})
		fsys = faults.NewFS(faults.OS{}, reg)
	}
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }

	wlog, rec, err := wal.Open(walDir, wal.Options{FS: fsys, Logf: logf})
	if err != nil {
		return err
	}
	defer func() { _ = wlog.Close() }()
	fmt.Printf("wal: recovered %d record(s) in %d segment(s), torn tail %d byte(s)\n",
		rec.Records, rec.Segments, rec.TornBytes)
	store, err := release.OpenStore(relDir, release.StoreOptions{FS: fsys, Logf: logf})
	if err != nil {
		return err
	}
	upd, err := dynamic.OpenUpdater(dynamic.UpdaterConfig{
		TotalBudget: dp.Epsilon(f.eps * float64(f.batches)),
		PerRelease:  dp.Epsilon(f.eps),
		LouvainRuns: f.runs,
		Seed:        f.seed,
		JournalPath: filepath.Join(f.dir, "journal.bin"),
		WAL:         wlog,
		Store:       store,
		// The drill's batches churn roughly half the population, so raise
		// the full-release threshold and tighten the chain bound: the run
		// then exercises both artifact kinds — delta publishes for local
		// drift, scheduled fulls re-anchoring the chain.
		DriftFullUsers: 0.8,
		FullEvery:      4,
		FS:             fsys,
		Logf:           logf,
	})
	if err != nil {
		return err
	}

	advance := func() error {
		dec, err := upd.Advance()
		if err != nil {
			return err
		}
		if dec.Published {
			fmt.Printf("seq %d: published %s version %d (touched %.2f, modularity gain %+.3f)\n",
				dec.Seq, dec.Kind, dec.Version, dec.TouchedFraction, dec.ModularityGain)
		} else {
			fmt.Printf("seq %d: held back: %s\n", dec.Seq, dec.Reason)
		}
		return nil
	}

	total := uint64(f.batches) * uint64(f.perBatch)
	gen := &mutGen{state: uint64(f.seed)}
	for i := uint64(0); i < wlog.LastSeq(); i++ {
		gen.record() // fast-forward past what the crashed run already appended
	}
	if last := wlog.LastSeq(); last > 0 && last%uint64(f.perBatch) == 0 {
		// The previous run may have died inside the decision for the batch
		// it had just synced. Re-run that boundary's decision before
		// appending more: publish-or-skip is deterministic, and a boundary
		// whose decision already completed re-decides to the same skip (or
		// sees no new mutations at all). A mid-batch tail needs no such
		// catch-up — its preceding boundary decision must have completed
		// for the tail's appends to have started.
		if err := advance(); err != nil {
			return err
		}
	}
	for seq := wlog.LastSeq(); seq < total; {
		end := (seq/uint64(f.perBatch) + 1) * uint64(f.perBatch)
		if end > total {
			end = total
		}
		for ; seq < end; seq++ {
			op, a, b := gen.record()
			if _, err := wlog.Append(op, a, b); err != nil {
				return err
			}
		}
		if err := wlog.Sync(); err != nil {
			return err
		}
		if err := advance(); err != nil {
			return err
		}
	}

	ln := upd.Lineage()
	digest, err := dirDigest(relDir)
	if err != nil {
		return err
	}
	fmt.Printf("stream: releases=%d spent=%g lineage full=%d deltas=%d version=%d\n",
		upd.Releases(), float64(upd.Spent()), ln.Full, len(ln.Deltas), ln.Version())
	fmt.Printf("stream: quarantine files=%d\n", len(rec.QuarantineFiles))
	fmt.Printf("stream: store digest=%016x\n", digest)
	return nil
}

// dirDigest hashes a directory's regular files (names and contents, in
// sorted order) so drill scripts can compare two stores byte-for-byte.
func dirDigest(dir string) (uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		_, _ = h.Write([]byte(e.Name()))
		_, _ = h.Write(raw)
	}
	return h.Sum64(), nil
}
