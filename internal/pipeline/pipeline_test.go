package pipeline

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"socialrec/internal/faults"
	"socialrec/internal/frame"
	"socialrec/internal/telemetry"
)

// int64Spec is a test step of an int64 value with a deterministic codec.
func int64Spec(name, key string, fp uint64) Spec[int64] {
	return Spec[int64]{
		Name: name, Key: key, Version: 1, Fingerprint: fp,
		Encode: func(w *frame.Writer, v int64) error {
			w.U64(uint64(v))
			return nil
		},
		Decode: func(r *frame.Reader) (int64, error) {
			return int64(r.U64("value")), r.Err()
		},
	}
}

// testOpts returns quiet Options writing checkpoints to dir.
func testOpts(dir string) Options {
	return Options{
		CheckpointDir: dir,
		Metrics:       telemetry.NewRegistry(),
	}
}

// chain is the canonical three-step test pipeline: source (emits seed) →
// double → add_ten, where add_ten spends ε = 0.5.
type chain struct {
	seed          int64
	doubleVersion int            // double's code version; 0 selects 1
	runs          map[string]int // executions per step
}

func newChain(seed int64) *chain { return &chain{seed: seed, runs: map[string]int{}} }

// run runs the chain and returns add_ten's value.
func (c *chain) run(ctx context.Context, opts Options) (final int64, res *Result, err error) {
	r, err := Start(ctx, opts)
	if err != nil {
		return 0, nil, err
	}
	defer func() { r.End(err) }()
	base, baseFP, err := Step(r, int64Spec("source", "base", uint64(c.seed)), func(context.Context) (int64, error) {
		c.runs["source"]++
		return c.seed, nil
	})
	if err != nil {
		return 0, nil, err
	}
	double := int64Spec("double", "doubled", 0)
	if c.doubleVersion != 0 {
		double.Version = c.doubleVersion
	}
	doubled, doubledFP, err := Step(r, double, func(context.Context) (int64, error) {
		c.runs["double"]++
		return 2 * base, nil
	}, baseFP)
	if err != nil {
		return 0, nil, err
	}
	final, _, err = Step(r, int64Spec("add_ten", "final", 0), func(ctx context.Context) (int64, error) {
		c.runs["add_ten"]++
		r.RecordSpend(ctx, telemetry.ReleaseEvent{Mechanism: "test", Epsilon: 0.5, Sensitivity: 1, Values: 1})
		return doubled + 10, nil
	}, doubledFP)
	if err != nil {
		return 0, nil, err
	}
	return final, &r.Result, nil
}

// checkRuns requires every chain step to have run want times.
func (c *chain) checkRuns(t *testing.T, want int) {
	t.Helper()
	for _, name := range []string{"source", "double", "add_ten"} {
		if n := c.runs[name]; n != want {
			t.Errorf("stage %s ran %d times, want %d", name, n, want)
		}
	}
}

// oneStep runs a pipeline of the single step name, computing with compute.
func oneStep(ctx context.Context, opts Options, name string, compute func(context.Context) (int64, error)) (*Result, error) {
	r, err := Start(ctx, opts)
	if err != nil {
		return nil, err
	}
	_, _, err = Step(r, int64Spec(name, "x", 0), compute)
	r.End(err)
	if err != nil {
		return nil, err
	}
	return &r.Result, nil
}

// TestStepValidation: a step name or key that is not a valid telemetry
// name is rejected before the step computes or touches the checkpoint
// directory, because both become file names.
func TestStepValidation(t *testing.T) {
	cases := []struct {
		name, key, want string
	}{
		{"Bad-Name", "x", "invalid stage name"},
		{"a", "UPPER", "not a valid name"},
		{"a", "", "not a valid name"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		r, err := Start(context.Background(), testOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		computed := false
		_, _, err = Step(r, int64Spec(tc.name, tc.key, 0), func(context.Context) (int64, error) {
			computed = true
			return 1, nil
		})
		r.End(err)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q/%q: err = %v, want containing %q", tc.name, tc.key, err, tc.want)
		}
		if names, _ := os.ReadDir(dir); computed || len(names) != 0 {
			t.Errorf("%q/%q: rejected step computed (%v) or wrote %d file(s)", tc.name, tc.key, computed, len(names))
		}
	}
}

func TestRunWithoutCheckpoints(t *testing.T) {
	c := newChain(21)
	final, res, err := c.run(context.Background(), testOpts(""))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if final != 52 {
		t.Fatalf("final = %d, want 52", final)
	}
	if res.Resumed() != 0 {
		t.Fatalf("resumed %d stages without a checkpoint dir", res.Resumed())
	}
	c.checkRuns(t, 1)
}

func TestResumeSkipsCompletedStages(t *testing.T) {
	dir := t.TempDir()
	c := newChain(21)
	final1, _, err := c.run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	final2, res2, err := c.run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if final2 != final1 {
		t.Fatalf("resumed final = %d, want %d", final2, final1)
	}
	if res2.Resumed() != 3 {
		t.Fatalf("resumed %d stages, want 3", res2.Resumed())
	}
	c.checkRuns(t, 1)
	// Resumed reports carry the persisted spends.
	last := res2.Stages[2]
	if !last.Resumed || len(last.Spends) != 1 || last.Spends[0].Epsilon != 0.5 {
		t.Fatalf("resumed add_ten report = %+v, want 1 spend of ε=0.5", last)
	}
}

// TestResumeOffReRunsButRefreshesCheckpoints: a fresh run, the one way to
// ignore matching checkpoints, re-runs every stage and rewrites their
// checkpoints, so the next run resumes all of them to the same value.
func TestResumeOffReRunsButRefreshesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	c := newChain(21)
	if _, _, err := c.run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("first run: %v", err)
	}
	opts := testOpts(dir)
	opts.Fresh = true
	if _, _, err := c.run(context.Background(), opts); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	final, res, err := c.run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("third run: %v", err)
	}
	if res.Resumed() != 3 || final != 52 {
		t.Fatalf("run after the fresh run resumed %d of 3 stages, final %d", res.Resumed(), final)
	}
	c.checkRuns(t, 2) // the first and the fresh run
}

func TestFreshDiscardsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	c := newChain(21)
	if _, _, err := c.run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("first run: %v", err)
	}
	opts := testOpts(dir)
	opts.Fresh = true
	_, res, err := c.run(context.Background(), opts)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if res.Resumed() != 0 {
		t.Fatalf("fresh run resumed %d stages", res.Resumed())
	}
	c.checkRuns(t, 2)
}

func TestVersionBumpInvalidatesStageAndDownstream(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := newChain(21).run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("first run: %v", err)
	}
	c := newChain(21)
	c.doubleVersion = 2
	_, res, err := c.run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !res.Stages[0].Resumed {
		t.Errorf("source should have been resumed")
	}
	if res.Stages[1].Resumed || res.Stages[2].Resumed {
		t.Errorf("double and add_ten should have re-run: %+v", res.Stages[1:])
	}
	if c.runs["source"] != 0 {
		t.Errorf("source ran despite valid checkpoint")
	}
}

func TestConfigChangeInvalidatesEverything(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.Config = 1
	if _, _, err := newChain(21).run(context.Background(), opts); err != nil {
		t.Fatalf("first run: %v", err)
	}
	opts.Config = 2
	_, res, err := newChain(21).run(context.Background(), opts)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if res.Resumed() != 0 {
		t.Fatalf("config change resumed %d stages, want 0", res.Resumed())
	}
}

func TestCorruptArtifactForcesReRun(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := newChain(21).run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("first run: %v", err)
	}
	// Flip a payload byte in the "doubled" artifact; CRC validation must
	// reject it and re-run "double" (and, because add_ten's checkpoint is
	// still fingerprint-valid, add_ten may resume).
	path := filepath.Join(dir, "doubled.art")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := newChain(21)
	final, _, err := c.run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if final != 52 {
		t.Fatalf("final = %d, want 52", final)
	}
	if c.runs["double"] == 0 {
		t.Errorf("double should have re-run after artifact corruption")
	}
	if c.runs["source"] != 0 {
		t.Errorf("source should have resumed")
	}
}

// TestPermanentFailureAfterRetriesExhausted: the runner never retries, so
// a stage's first error is permanent for the run. The run fails with the
// stage's error, wrapped with the stage's name, and commits nothing.
func TestPermanentFailureAfterRetriesExhausted(t *testing.T) {
	cause := errors.New("always")
	attempts := 0
	dir := t.TempDir()
	_, err := oneStep(context.Background(), testOpts(dir), "doomed", func(context.Context) (int64, error) {
		attempts++
		return 0, cause
	})
	if !errors.Is(err, cause) || !strings.Contains(err.Error(), "stage doomed") {
		t.Fatalf("err = %v, want the stage's error naming stage doomed", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
	if _, err := os.Stat(filepath.Join(dir, "doomed.stage")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed stage left a receipt (stat err %v)", err)
	}
}

// TestStageTimeout: a deadline on the run's own context cuts a stage off,
// and the run fails with the deadline's error.
func TestStageTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := oneStep(ctx, testOpts(""), "slow", func(ctx context.Context) (int64, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestTimeoutSwallowedByStageStillFails(t *testing.T) {
	// A stage that ignores the end of its context and returns a value must
	// not commit.
	ran := false
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := oneStep(ctx, testOpts(dir), "ignorer", func(ctx context.Context) (int64, error) {
		ran = true
		<-ctx.Done()
		return 1, nil // swallows the deadline
	})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if !ran {
		t.Fatalf("the deadline passed before the stage started")
	}
	if _, err := os.Stat(filepath.Join(dir, "ignorer.stage")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("timed-out stage left a receipt (stat err %v)", err)
	}
}

// TestPanicContainedAndRetried: a panicking stage fails its run with an
// error instead of crashing the process, and the caller's rerun (the only
// retry there is) completes the stage.
func TestPanicContainedAndRetried(t *testing.T) {
	attempts := 0
	panicky := func(context.Context) (int64, error) {
		attempts++
		if attempts == 1 {
			panic(faults.InjectedPanic{Point: "stage.run"})
		}
		return 3, nil
	}
	dir := t.TempDir()
	_, err := oneStep(context.Background(), testOpts(dir), "panicky", panicky)
	if err == nil || !strings.Contains(err.Error(), "stage panicky: panicked") {
		t.Fatalf("err = %v, want a contained panic naming stage panicky", err)
	}
	res, err := oneStep(context.Background(), testOpts(dir), "panicky", panicky)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if attempts != 2 || res.Resumed() != 0 {
		t.Fatalf("attempts = %d, resumed = %d; want 2 runs of the stage and no resume", attempts, res.Resumed())
	}
}

func TestCancellationNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	_, err := oneStep(ctx, testOpts(""), "victim", func(ctx context.Context) (int64, error) {
		attempts++
		cancel()
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
}

func TestSpendPersistedExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	c := newChain(21)
	if _, _, err := c.run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("first run: %v", err)
	}
	store, _, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		records, skipped, err := store.Ledger()
		if err != nil {
			t.Fatalf("%s: Ledger: %v", when, err)
		}
		if len(skipped) != 0 {
			t.Fatalf("%s: skipped receipts %v", when, skipped)
		}
		if len(records) != 1 || records[0].Stage != "add_ten" || records[0].Event.Epsilon != 0.5 {
			t.Fatalf("%s: ledger = %+v, want exactly one add_ten spend of ε=0.5", when, records)
		}
		if got := SpentEpsilon(records); math.Abs(got-0.5) > 1e-15 {
			t.Fatalf("%s: SpentEpsilon = %g, want 0.5", when, got)
		}
	}
	check("after first run")
	if _, _, err := c.run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	check("after resumed run")
}

func TestOpenStoreSweepsTempDebris(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "base.art.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, res, err := newChain(21).run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Swept) != 1 || res.Swept[0] != "base.art.tmp" {
		t.Fatalf("Swept = %v, want [base.art.tmp]", res.Swept)
	}
	if _, err := os.Stat(filepath.Join(dir, "base.art.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp debris survived open")
	}
}

func TestInfiniteEpsilonExcludedFromSpentTotal(t *testing.T) {
	records := []SpendRecord{
		{Event: telemetry.ReleaseEvent{Epsilon: 1.5}},
		{Event: telemetry.ReleaseEvent{Epsilon: math.Inf(1)}},
	}
	if got := SpentEpsilon(records); got != 1.5 {
		t.Fatalf("SpentEpsilon = %g, want 1.5 (∞ excluded)", got)
	}
}
