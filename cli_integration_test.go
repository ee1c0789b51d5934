package socialrec_test

import (
	"errors"
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

	out = run("./cmd/evaluate", "-social", social, "-prefs", prefs,
		"-epsilon", "0.5", "-n", "5", "-sample", "40")
	// The report is pinned: the release, the sample and every metric are
	// deterministic functions of the data, ε and the seeds.
	const wantReport = `evaluated 40 users, N=5, measure=CN, epsilon=0.5 (6 clusters)
  NDCG@5:              0.972
  precision@5:         0.855
  recall@5:            0.855
  Jaccard vs exact:     0.765
  catalog coverage:     0.038 (private) vs 0.049 (exact)
  recommendation Gini:  0.431 (private) vs 0.497 (exact)
`
	if !strings.Contains(out, wantReport) {
		t.Errorf("evaluate printed\n%s\nwant the report\n%s", out, wantReport)
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
	// A mean over fewer than one release is no measurement: refused before
	// any data is read, instead of printing NaN% or -0.0%.
	for _, trials := range []string{"0", "-2"} {
		cmd := exec.Command("go", "run", "./cmd/attack", "-social", social, "-prefs", prefs,
			"-victim", "0", "-trials", trials)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "-trials must be at least 1") {
			t.Errorf("attack -trials %s: err %v, output\n%s\nwant exit 1 with a -trials message", trials, err, out)
		}
	}

	// experiments refuses, before doing any work, an experiment it does
	// not know and a flag the selected experiment would ignore.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "bogus"}, `unknown -exp "bogus"`},
		{[]string{"-exp", "table1", "-preset", "tiny"}, "-exp table1 does not read -preset"},
	} {
		cmd := exec.Command("go", append([]string{"run", "./cmd/experiments"}, tc.args...)...)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), tc.want) {
			t.Errorf("experiments %v: err %v, output\n%s\nwant exit 1 with %q", tc.args, err, out, tc.want)
		}
	}
}
