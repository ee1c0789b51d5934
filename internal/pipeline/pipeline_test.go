package pipeline

import (
	"context"
	"errors"
	"fmt"
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

// testStage is a configurable stage for tests.
type testStage struct {
	name    string
	version int
	fp      uint64
	inputs  []Key
	outputs []Port
	run     func(ctx context.Context, st *State) error
}

func (s *testStage) Name() string        { return s.name }
func (s *testStage) Version() int        { return s.version }
func (s *testStage) Fingerprint() uint64 { return s.fp }
func (s *testStage) Inputs() []Key       { return s.inputs }
func (s *testStage) Outputs() []Port     { return s.outputs }
func (s *testStage) Run(ctx context.Context, st *State) error {
	return s.run(ctx, st)
}

// int64Port is a deterministic codec for int64 values.
func int64Port(k Key) Port {
	return Port{
		Key: k,
		Encode: func(w *frame.Writer, v any) error {
			i, ok := v.(int64)
			if !ok {
				return fmt.Errorf("want int64, got %T", v)
			}
			w.U64(uint64(i))
			return nil
		},
		Decode: func(r *frame.Reader) (any, error) {
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

// chain builds the canonical three-stage test pipeline:
// source (emits seed) → double → add_ten. runs counts executions per stage.
func chain(t *testing.T, seed int64, runs map[string]*int) *Pipeline {
	t.Helper()
	bump := func(name string) {
		if runs != nil {
			if _, ok := runs[name]; !ok {
				c := 0
				runs[name] = &c
			}
			*runs[name]++
		}
	}
	p, err := New(
		&testStage{
			name: "source", version: 1, fp: uint64(seed),
			outputs: []Port{int64Port("base")},
			run: func(ctx context.Context, st *State) error {
				bump("source")
				st.Put("base", seed)
				return nil
			},
		},
		&testStage{
			name: "double", version: 1,
			inputs:  []Key{"base"},
			outputs: []Port{int64Port("doubled")},
			run: func(ctx context.Context, st *State) error {
				bump("double")
				v, err := Get[int64](st, "base")
				if err != nil {
					return err
				}
				st.Put("doubled", 2*v)
				return nil
			},
		},
		&testStage{
			name: "add_ten", version: 1,
			inputs:  []Key{"doubled"},
			outputs: []Port{int64Port("final")},
			run: func(ctx context.Context, st *State) error {
				bump("add_ten")
				v, err := Get[int64](st, "doubled")
				if err != nil {
					return err
				}
				st.Put("final", v+10)
				st.RecordSpend(telemetry.ReleaseEvent{Mechanism: "test", Epsilon: 0.5, Sensitivity: 1, Values: 1})
				return nil
			},
		},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func finalValue(t *testing.T, res *Result) int64 {
	t.Helper()
	v, err := Get[int64](res.State, "final")
	if err != nil {
		t.Fatalf("final value: %v", err)
	}
	return v
}

func TestNewValidation(t *testing.T) {
	ok := &testStage{name: "a", outputs: []Port{int64Port("x")},
		run: func(context.Context, *State) error { return nil }}
	cases := []struct {
		name   string
		stages []Stage
		want   string
	}{
		{"empty", nil, "no stages"},
		{"bad name", []Stage{&testStage{name: "Bad-Name"}}, "invalid stage name"},
		{"dup stage", []Stage{ok, &testStage{name: "a"}}, "duplicate stage name"},
		{"negative version", []Stage{&testStage{name: "a", version: -1}}, "negative version"},
		{"unknown input", []Stage{&testStage{name: "a", inputs: []Key{"ghost"}}}, "not produced"},
		{"dup output", []Stage{ok, &testStage{name: "b", outputs: []Port{int64Port("x")}}}, "produced by both"},
		{"bad key", []Stage{&testStage{name: "a", outputs: []Port{int64Port("UPPER")}}}, "not a valid name"},
		{"nil codec", []Stage{&testStage{name: "a", outputs: []Port{{Key: "x"}}}}, "missing its codec"},
	}
	for _, tc := range cases {
		_, err := New(tc.stages...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestRunWithoutCheckpoints(t *testing.T) {
	runs := map[string]*int{}
	p := chain(t, 21, runs)
	opts := testOpts("")
	res, err := p.Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := finalValue(t, res); got != 52 {
		t.Fatalf("final = %d, want 52", got)
	}
	if res.Resumed() != 0 {
		t.Fatalf("resumed %d stages without a checkpoint dir", res.Resumed())
	}
	for name, n := range runs {
		if *n != 1 {
			t.Errorf("stage %s ran %d times, want 1", name, *n)
		}
	}
}

func TestStageMustPublishDeclaredOutputs(t *testing.T) {
	p, err := New(&testStage{
		name: "lazy", outputs: []Port{int64Port("x")},
		run: func(context.Context, *State) error { return nil },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, dir := range []string{"", t.TempDir()} {
		_, err = p.Run(context.Background(), testOpts(dir))
		if err == nil || !strings.Contains(err.Error(), "did not publish") {
			t.Errorf("dir=%q: err = %v, want did-not-publish", dir, err)
		}
	}
}

func TestResumeSkipsCompletedStages(t *testing.T) {
	dir := t.TempDir()
	runs := map[string]*int{}
	p := chain(t, 21, runs)

	res1, err := p.Run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	res2, err := p.Run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if got, want := finalValue(t, res2), finalValue(t, res1); got != want {
		t.Fatalf("resumed final = %d, want %d", got, want)
	}
	if res2.Resumed() != 3 {
		t.Fatalf("resumed %d stages, want 3", res2.Resumed())
	}
	for name, n := range runs {
		if *n != 1 {
			t.Errorf("stage %s ran %d times across both runs, want 1", name, *n)
		}
	}
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
	runs := map[string]*int{}
	p := chain(t, 21, runs)
	if _, err := p.Run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	opts := testOpts(dir)
	opts.Fresh = true
	if _, err := p.Run(context.Background(), opts); err != nil {
		t.Fatalf("fresh Run: %v", err)
	}
	res, err := p.Run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("third Run: %v", err)
	}
	if res.Resumed() != 3 || finalValue(t, res) != 52 {
		t.Fatalf("run after the fresh run resumed %d of 3 stages, final %d", res.Resumed(), finalValue(t, res))
	}
	for name, n := range runs {
		if *n != 2 {
			t.Errorf("stage %s ran %d times, want 2 (first and fresh runs)", name, *n)
		}
	}
}

func TestFreshDiscardsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	runs := map[string]*int{}
	p := chain(t, 21, runs)
	if _, err := p.Run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	opts := testOpts(dir)
	opts.Fresh = true
	res, err := p.Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("fresh Run: %v", err)
	}
	if res.Resumed() != 0 {
		t.Fatalf("fresh run resumed %d stages", res.Resumed())
	}
	for name, n := range runs {
		if *n != 2 {
			t.Errorf("stage %s ran %d times, want 2", name, *n)
		}
	}
}

func TestVersionBumpInvalidatesStageAndDownstream(t *testing.T) {
	dir := t.TempDir()
	if _, err := chain(t, 21, nil).Run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	runs := map[string]*int{}
	p := chain(t, 21, runs)
	p.stages[1].(*testStage).version = 2 // bump "double"
	res, err := p.Run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !res.Stages[0].Resumed {
		t.Errorf("source should have been resumed")
	}
	if res.Stages[1].Resumed || res.Stages[2].Resumed {
		t.Errorf("double and add_ten should have re-run: %+v", res.Stages[1:])
	}
	if _, ran := runs["source"]; ran {
		t.Errorf("source ran despite valid checkpoint")
	}
}

func TestConfigChangeInvalidatesEverything(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.Config = 1
	if _, err := chain(t, 21, nil).Run(context.Background(), opts); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	runs := map[string]*int{}
	opts.Config = 2
	res, err := chain(t, 21, runs).Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if res.Resumed() != 0 {
		t.Fatalf("config change resumed %d stages, want 0", res.Resumed())
	}
}

func TestCorruptArtifactForcesReRun(t *testing.T) {
	dir := t.TempDir()
	if _, err := chain(t, 21, nil).Run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("first Run: %v", err)
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
	runs := map[string]*int{}
	res, err := chain(t, 21, runs).Run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if got := finalValue(t, res); got != 52 {
		t.Fatalf("final = %d, want 52", got)
	}
	if _, ran := runs["double"]; !ran {
		t.Errorf("double should have re-run after artifact corruption")
	}
	if _, ran := runs["source"]; ran {
		t.Errorf("source should have resumed")
	}
}

// TestPermanentFailureAfterRetriesExhausted: the runner never retries, so
// a stage's first error is permanent for the run. The run fails with the
// stage's error, wrapped with the stage's name, and commits nothing.
func TestPermanentFailureAfterRetriesExhausted(t *testing.T) {
	cause := errors.New("always")
	attempts := 0
	p, err := New(&testStage{
		name: "doomed", outputs: []Port{int64Port("x")},
		run: func(context.Context, *State) error {
			attempts++
			return cause
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dir := t.TempDir()
	_, err = p.Run(context.Background(), testOpts(dir))
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
	p, err := New(&testStage{
		name: "slow", outputs: []Port{int64Port("x")},
		run: func(ctx context.Context, st *State) error {
			<-ctx.Done()
			return ctx.Err()
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = p.Run(ctx, testOpts(""))
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestTimeoutSwallowedByStageStillFails(t *testing.T) {
	// A stage that ignores the end of its context and returns nil must not
	// commit.
	ran := false
	p, err := New(&testStage{
		name: "ignorer", outputs: []Port{int64Port("x")},
		run: func(ctx context.Context, st *State) error {
			ran = true
			<-ctx.Done()
			st.Put("x", int64(1))
			return nil // swallows the deadline
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = p.Run(ctx, testOpts(dir))
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
	p, err := New(&testStage{
		name: "panicky", outputs: []Port{int64Port("x")},
		run: func(ctx context.Context, st *State) error {
			attempts++
			if attempts == 1 {
				panic(faults.InjectedPanic{Point: "stage.run"})
			}
			st.Put("x", int64(3))
			return nil
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dir := t.TempDir()
	_, err = p.Run(context.Background(), testOpts(dir))
	if err == nil || !strings.Contains(err.Error(), "stage panicky: panicked") {
		t.Fatalf("err = %v, want a contained panic naming stage panicky", err)
	}
	res, err := p.Run(context.Background(), testOpts(dir))
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
	p, err := New(&testStage{
		name: "victim", outputs: []Port{int64Port("x")},
		run: func(ctx context.Context, st *State) error {
			attempts++
			cancel()
			<-ctx.Done()
			return ctx.Err()
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = p.Run(ctx, testOpts(""))
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
}

func TestSpendPersistedExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	p := chain(t, 21, nil)
	if _, err := p.Run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("first Run: %v", err)
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
	if _, err := p.Run(context.Background(), testOpts(dir)); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	check("after resumed run")
}

func TestOpenStoreSweepsTempDebris(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "base.art.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := chain(t, 21, nil).Run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("Run: %v", err)
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
