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

// sweep is a release-shaped pipeline whose last step draws seeded Laplace
// noise and spends ε, mirroring the offline path: the "release" value is
// the bytes that would leave the trust boundary, so the crash/resume
// invariant under test is exactly the paper-level one — the published
// noisy values must be identical whether or not the run crashed, and the
// ε must be journaled exactly once.
type sweep struct {
	seed int64
	// wrap, when set, runs in place of the release step's computation,
	// which it may call.
	wrap func(ctx context.Context, compute func(context.Context) (int64, error)) (int64, error)
}

// run runs the pipeline and returns the release value.
func (s sweep) run(ctx context.Context, opts Options) (release int64, err error) {
	r, err := Start(ctx, opts)
	if err != nil {
		return 0, err
	}
	defer func() { r.End(err) }()
	count, countFP, err := Step(r, int64Spec("load", "count", uint64(s.seed)), func(context.Context) (int64, error) {
		return s.seed * 3, nil
	})
	if err != nil {
		return 0, err
	}
	sum, sumFP, err := Step(r, int64Spec("aggregate", "sum", 0), func(context.Context) (int64, error) {
		return count + 17, nil
	}, countFP)
	if err != nil {
		return 0, err
	}
	compute := func(ctx context.Context) (int64, error) {
		// Seeded noise: a re-run reproduces the identical draw, so
		// re-releasing after a crash is the same single release.
		noise := dp.NewRand(s.seed + 1).NormFloat64()
		r.RecordSpend(ctx, telemetry.ReleaseEvent{Mechanism: "test", Epsilon: 0.25, Sensitivity: 1, Values: 1})
		return sum + int64(math.Round(noise*1000)), nil
	}
	step := compute
	if s.wrap != nil {
		step = func(ctx context.Context) (int64, error) { return s.wrap(ctx, compute) }
	}
	release, _, err = Step(r, int64Spec("release", "release", 0), step, sumFP)
	return release, err
}

// assertConverged checks the post-resume invariants: the release value and
// its checkpoint bytes equal the uninterrupted baseline, and the durable
// ledger records the ε-spend exactly once.
func assertConverged(t *testing.T, label, dir string, got, wantFinal int64, wantBytes []byte) {
	t.Helper()
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
	v, err := sweep{seed: seed}.run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("baseline run: %v", err)
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
				_, runErr := sweep{seed: seed}.run(context.Background(), opts)
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

	panicky := sweep{seed: seed, wrap: func(ctx context.Context, compute func(context.Context) (int64, error)) (int64, error) {
		if _, err := compute(ctx); err != nil {
			return 0, err
		}
		panic(faults.InjectedPanic{Point: "stage.release"})
	}}
	if _, err := panicky.run(context.Background(), testOpts(dir)); err == nil {
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

	reached := false
	hung := sweep{seed: seed, wrap: func(ctx context.Context, _ func(context.Context) (int64, error)) (int64, error) {
		reached = true
		<-ctx.Done() // hang until the run's deadline passes
		return 0, ctx.Err()
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := hung.run(ctx, testOpts(dir)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out run: err = %v, want deadline exceeded", err)
	}
	if !reached {
		t.Fatalf("the deadline passed before the release stage started")
	}
	if _, err := os.Stat(filepath.Join(dir, "release.stage")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("timed-out stage left a receipt (stat err %v)", err)
	}
	assertConverged(t, "after timeout", dir, mustResume(t, dir, seed), wantFinal, wantBytes)
}

func mustResume(t *testing.T, dir string, seed int64) int64 {
	t.Helper()
	release, err := sweep{seed: seed}.run(context.Background(), testOpts(dir))
	if err != nil {
		t.Fatalf("resume run in %s: %v", dir, err)
	}
	return release
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
