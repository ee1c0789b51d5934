package socialrec_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIIntegration drives the actual command-line tools end to end:
// generate a dataset, cluster it, produce recommendations, evaluate, and
// mount the attack — the workflow the README documents. It shells out to
// `go run`, so it is skipped under -short.
func TestCLIIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the CLI binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go binary not available")
	}
	dir := t.TempDir()

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("go", append([]string{"run"}, args...)...)
		cmd.Dir = "."
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go run %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	out := run("./cmd/datagen", "-preset", "tiny", "-seed", "5", "-out", dir)
	if !strings.Contains(out, "|U|") {
		t.Fatalf("datagen output missing stats:\n%s", out)
	}
	for _, f := range []string{"social.tsv", "preferences.tsv", "communities.tsv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("datagen did not write %s: %v", f, err)
		}
	}

	social := filepath.Join(dir, "social.tsv")
	prefs := filepath.Join(dir, "preferences.tsv")

	out = run("./cmd/communities", "-social", social, "-runs", "3")
	if !strings.Contains(out, "modularity:") {
		t.Fatalf("communities output missing modularity:\n%s", out)
	}
	// Like every other -runs flag, a non-positive count means the paper's
	// ten restarts, so it prints exactly what -runs 10 prints.
	ten := run("./cmd/communities", "-social", social, "-runs", "10")
	for _, runs := range []string{"0", "-3"} {
		if got := run("./cmd/communities", "-social", social, "-runs", runs); got != ten {
			t.Errorf("communities -runs %s printed\n%s\n-runs 10 printed\n%s", runs, got, ten)
		}
	}

	out = run("./cmd/recommend", "-social", social, "-prefs", prefs,
		"-epsilon", "0.5", "-n", "3", "-limit", "1")
	if !strings.Contains(out, "user 0:") || !strings.Contains(out, "utility") {
		t.Fatalf("recommend output malformed:\n%s", out)
	}

	evalArgs := []string{"./cmd/evaluate", "-social", social, "-prefs", prefs,
		"-epsilon", "0.5", "-n", "5", "-sample", "40"}
	out = run(evalArgs...)
	if !strings.Contains(out, "NDCG@5") {
		t.Fatalf("evaluate output malformed:\n%s", out)
	}
	// The checkpointed pipeline evaluates the same sample of the same
	// release, so every metric line must match the direct path's.
	report := func(out string) string {
		_, rep, _ := strings.Cut(out, "evaluated ")
		rep, _, _ = strings.Cut(rep, "\n\n")
		return rep
	}
	ckpt := run(append(evalArgs, "-checkpoint-dir", filepath.Join(dir, "ckpt"))...)
	if got, want := report(ckpt), report(out); got != want || want == "" {
		t.Errorf("evaluate -checkpoint-dir reports\n%s\nwithout it\n%s", got, want)
	}
	// The exit table's rows come from finished trace spans: the graph
	// load, the engine build root with its clustering and release
	// children, and the three engine phases of the evaluated lists.
	_, table, _ := strings.Cut(out, "stage timings:\n")
	table, _, _ = strings.Cut(table, "\n\n")
	rows := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = true
		}
	}
	for _, want := range []string{"graph_load", "engine_build", "cluster_louvain",
		"laplace_release", "similarity_batch", "cluster_average", "top_n"} {
		if !rows[want] {
			t.Errorf("evaluate stage table lacks a %s row:\n%s", want, table)
		}
	}

	out = run("./cmd/attack", "-social", social, "-prefs", prefs,
		"-victim", "0", "-eps", "0.5", "-trials", "1", "-runs", "2")
	if !strings.Contains(out, "non-private recommender:   100.0% recovered") {
		t.Fatalf("attack should fully succeed against the exact recommender:\n%s", out)
	}
}
