package pipeline

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"socialrec/internal/dp"
	"socialrec/internal/faults"
	"socialrec/internal/telemetry"
)

// sweepPipeline builds a release-shaped pipeline whose last stage draws
// seeded Laplace noise and spends ε, mirroring the offline path: the
// "release" output is the bytes that would leave the trust boundary, so the
// crash/resume invariant under test is exactly the paper-level one — the
// published noisy values must be identical whether or not the run crashed,
// and the ε must be journaled exactly once.
func sweepPipeline(t *testing.T, seed int64) *Pipeline {
	t.Helper()
	p, err := New(
		&testStage{
			name: "load", version: 1, fp: uint64(seed),
			outputs: []Port{int64Port("count")},
			run: func(ctx context.Context, st *State) error {
				st.Put("count", seed*3)
				return nil
			},
		},
		&testStage{
			name: "aggregate", version: 1,
			inputs:  []Key{"count"},
			outputs: []Port{int64Port("sum")},
			run: func(ctx context.Context, st *State) error {
				v, err := Get[int64](st, "count")
				if err != nil {
					return err
				}
				st.Put("sum", v+17)
				return nil
			},
		},
		&testStage{
			name: "release", version: 1,
			inputs:  []Key{"sum"},
			outputs: []Port{int64Port("release")},
			run: func(ctx context.Context, st *State) error {
				v, err := Get[int64](st, "sum")
				if err != nil {
					return err
				}
				// Seeded noise: a re-run reproduces the identical draw, so
				// re-releasing after a crash is the same single release.
				noise := dp.NewRand(seed + 1).NormFloat64()
				st.Put("release", v+int64(math.Round(noise*1000)))
				st.RecordSpend(telemetry.ReleaseEvent{Mechanism: "test", Epsilon: 0.25, Sensitivity: 1, Values: 1})
				return nil
			},
		},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

// assertConverged checks the post-resume invariants: the release value and
// its checkpoint bytes equal the uninterrupted baseline, and the durable
// ledger records the ε-spend exactly once.
func assertConverged(t *testing.T, label, dir string, res *Result, wantFinal int64, wantBytes []byte) {
	t.Helper()
	got, err := Get[int64](res.State, "release")
	if err != nil {
		t.Fatalf("%s: release value: %v", label, err)
	}
	if got != wantFinal {
		t.Fatalf("%s: release = %d, want %d (resume not deterministic)", label, got, wantFinal)
	}
	data, err := os.ReadFile(filepath.Join(dir, "release.art"))
	if err != nil {
		t.Fatalf("%s: reading release artifact: %v", label, err)
	}
	if !bytes.Equal(data, wantBytes) {
		t.Fatalf("%s: release artifact differs from uninterrupted baseline", label)
	}
	store, _, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatalf("%s: OpenStore: %v", label, err)
	}
	records, skipped, err := store.Ledger()
	if err != nil {
		t.Fatalf("%s: Ledger: %v", label, err)
	}
	if len(skipped) != 0 {
		t.Fatalf("%s: corrupt receipts after resume: %v", label, skipped)
	}
	spends := 0
	for _, r := range records {
		if r.Event.Epsilon != 0 {
			spends++
			if r.Stage != "release" || r.Event.Epsilon != 0.25 {
				t.Fatalf("%s: unexpected spend %+v", label, r)
			}
		}
	}
	if spends != 1 {
		t.Fatalf("%s: ε recorded %d times, want exactly once (records %+v)", label, spends, records)
	}
}

// baseline runs the pipeline uninterrupted and returns the expected release
// value and artifact bytes.
func sweepBaseline(t *testing.T, seed int64) (int64, []byte) {
	t.Helper()
	dir := t.TempDir()
	res, err := sweepPipeline(t, seed).Run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	v, err := Get[int64](res.State, "release")
	if err != nil {
		t.Fatalf("baseline release: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "release.art"))
	if err != nil {
		t.Fatalf("baseline artifact: %v", err)
	}
	return v, data
}

// TestFaultPointSweep is the crash-recovery proof from the issue: interrupt
// the pipeline at every filesystem fault point and every occurrence of that
// point (checkpoint create, write, fsync, close, rename, directory fsync,
// …), then resume and require the final release byte-identical to an
// uninterrupted run with the ε-spend journaled exactly once. Faults abort
// the run exactly where a crash would: nothing after the failed syscall
// executes against the checkpoint directory.
func TestFaultPointSweep(t *testing.T) {
	const seed = 77
	wantFinal, wantBytes := sweepBaseline(t, seed)

	points := []faults.Point{
		faults.PointFSCreate, faults.PointFSWrite, faults.PointFSSync,
		faults.PointFSClose, faults.PointFSRename, faults.PointFSSyncDir,
		faults.PointFSReadDir, faults.PointFSRemove,
		faults.PointFSOpen, faults.PointFSRead,
	}
	const maxOccurrence = 64
	for _, point := range points {
		point := point
		t.Run(string(point), func(t *testing.T) {
			for k := 0; ; k++ {
				if k >= maxOccurrence {
					t.Fatalf("occurrence cap %d reached; %s consulted more often than expected", maxOccurrence, point)
				}
				reg := faults.New(int64(1000 + k))
				reg.Arm(point, faults.Plan{After: uint64(k), Times: 1})
				dir := t.TempDir()

				// Interrupted run: the injected fault aborts it mid-checkpoint.
				opts := testOpts(dir)
				opts.FS = faults.NewFS(faults.OS{}, reg)
				_, runErr := sweepPipeline(t, seed).Run(context.Background(), opts)
				if reg.Fired(point) == 0 {
					// The whole run completed before occurrence k of this
					// point: the sweep is exhaustive, stop.
					if runErr != nil {
						t.Fatalf("occurrence %d: fault never fired yet run failed: %v", k, runErr)
					}
					assertConverged(t, "uninterrupted tail", dir, mustResume(t, dir, seed), wantFinal, wantBytes)
					return
				}

				// Resume with a healthy filesystem: must converge on the
				// byte-identical release with one journaled spend.
				assertConverged(t, string(point)+" occurrence "+itoa(k), dir, mustResume(t, dir, seed), wantFinal, wantBytes)
			}
		})
	}
}

// TestStagePanicMidRunThenResume crashes a stage with an injected panic
// after it spent ε but before its receipt committed, then resumes.
func TestStagePanicMidRunThenResume(t *testing.T) {
	const seed = 77
	wantFinal, wantBytes := sweepBaseline(t, seed)
	dir := t.TempDir()

	p := sweepPipeline(t, seed)
	inner := p.stages[2].(*testStage).run
	p.stages[2].(*testStage).run = func(ctx context.Context, st *State) error {
		if err := inner(ctx, st); err != nil {
			return err
		}
		panic(faults.InjectedPanic{Point: "stage.release"})
	}
	if _, err := p.Run(context.Background(), testOpts(dir)); err == nil {
		t.Fatalf("panicking run should fail")
	}
	// The spend happened in-process but the receipt never committed, so the
	// durable ledger must be empty of release spends.
	store, _, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := store.Ledger()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if r.Stage == "release" {
			t.Fatalf("uncommitted stage left a durable spend: %+v", r)
		}
	}
	assertConverged(t, "after panic", dir, mustResume(t, dir, seed), wantFinal, wantBytes)
}

// TestStageTimeoutThenResume cuts the release stage off mid-run with a
// deadline on the run's own context, then resumes without one.
func TestStageTimeoutThenResume(t *testing.T) {
	const seed = 77
	wantFinal, wantBytes := sweepBaseline(t, seed)
	dir := t.TempDir()

	p := sweepPipeline(t, seed)
	inner := p.stages[2].(*testStage).run
	reached := false
	p.stages[2].(*testStage).run = func(ctx context.Context, st *State) error {
		reached = true
		<-ctx.Done() // hang until the run's deadline passes
		return ctx.Err()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := p.Run(ctx, testOpts(dir)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out run: err = %v, want deadline exceeded", err)
	}
	if !reached {
		t.Fatalf("the deadline passed before the release stage started")
	}
	if _, err := os.Stat(filepath.Join(dir, "release.stage")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("timed-out stage left a receipt (stat err %v)", err)
	}
	p.stages[2].(*testStage).run = inner
	assertConverged(t, "after timeout", dir, mustResume(t, dir, seed), wantFinal, wantBytes)
}

func mustResume(t *testing.T, dir string, seed int64) *Result {
	t.Helper()
	res, err := sweepPipeline(t, seed).Run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("resume run in %s: %v", dir, err)
	}
	return res
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
