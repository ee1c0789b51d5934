package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"socialrec/internal/dataset"
	"socialrec/internal/generator"
	"socialrec/internal/graph"
)

// inputs are the generated graphs a run serves. Generating them is not part
// of any timed phase.
type inputs struct {
	social  *graph.Social
	prefs   *graph.Preference
	userIDs map[string]int
	tokens  []string // user id -> token
	stats   dataset.Stats
}

// datasetSeed fixes the generated datasets: a workload serves one
// paper-scale dataset, and the run seed draws its traffic and mutations.
const datasetSeed = 1

func makeInputs(cfg config) (*inputs, error) {
	p := cfg.wl.preset(datasetSeed)
	if cfg.smoke {
		p = generator.TinyTest(datasetSeed)
	}
	social, _, prefs, err := p.Generate()
	if err != nil {
		return nil, err
	}
	n := social.NumUsers()
	in := &inputs{social: social, prefs: prefs,
		userIDs: make(map[string]int, n), tokens: make([]string, n)}
	for u := 0; u < n; u++ {
		tok := strconv.Itoa(u)
		in.userIDs[tok] = u
		in.tokens[u] = tok
	}
	// A shard server knows only the public social graph, so its /stats
	// carries users and social edges, as cmd/recserve -shard reports them.
	in.stats = dataset.Stats{Users: n, SocialEdges: social.NumEdges()}
	return in, nil
}

// meta is the run metadata printed ahead of the result.
type meta struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
}

func hostMeta(cfg config) meta {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return meta{
		Workload: cfg.wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, SourceDigest: sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result identifies the code it measured even where no commit is known.
// Directories starting with "." (build output, VCS metadata) are skipped.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the host's cumulative CPU ticks: the share the hypervisor
// gave to other guests (steal) and the total. Steal during a run is printed
// with its results, since latency on a shared host moves with it.
func cpuTicks() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || i >= 8 { // user..steal; guest time is counted in user
			break
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealSince is the steal percentage of CPU ticks since (steal0, total0).
func stealSince(steal0, total0 float64) float64 {
	steal, total := cpuTicks()
	if total <= total0 {
		return 0
	}
	return 100 * (steal - steal0) / (total - total0)
}

// quantile returns the nearest-rank q-quantile of xs (0 for none). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
