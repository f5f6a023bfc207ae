// Command perfbench is the repository benchmark: three seeded workloads over
// the NDroid reproduction (market, resubmit, fig10), each printing its
// end-to-end metrics (untraced run) or its per-layer metrics (traced run) as
// one JSON object on the last line of standard output.
//
// Usage (normally through run.sh, which builds this package first):
//
//	perfbench --workload market --seed 1 --seconds 20 --trace 0
//
// Every layer is measured from outside: spans wrap the benchmark's own calls
// into the public functions of internal/service, core, static, summary, cas,
// dex, dvm and cfbench, and counters come from the stats those packages
// already expose. METRICS.md maps each per-layer metric to the end-to-end
// metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // spans and temporary stores go here
}

// result is what a workload run hands back to main.
type result struct {
	attempted int
	failed    int
	problems  []string // known-answer, parity and sanity failures
	metrics   map[string]float64
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

// fail records one failed check; the run then reports correct=false.
func (r *result) fail(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
// Their names and units match BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"apps_per_s", "1/s"},
	{"verdict_ms.p50", "ms"},
	{"verdict_ms.p99", "ms"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// bypasses reads 0 there (its counters are 0; a ratio or percentile with no
// samples is 0).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"error_rate", "ratio"},
		{"timeout_ms.p50", "ms"},
		{"replay_ms.p50", "ms"},
		{"replay_ms.p99", "ms"},
		{"fresh_ms.p50", "ms"},

		{"service.submit_ms.p50", "ms"},
		{"service.wait_ms.p99", "ms"},
		{"service.computed", "count"},
		{"service.verdict_hits", "count"},
		{"service.deduped", "count"},
		{"service.verdict_hit_ratio", "ratio"},

		{"core.fingerprint_ms.p50", "ms"},
		{"core.restore_ms.p50", "ms"},
		{"core.install_ms.p50", "ms"},
		{"core.run_ms.p50", "ms"},
		{"core.run_ms.p99", "ms"},
		{"core.crossvalidate_ms.p50", "ms"},
		{"core.guest_pages_per_reset", "pages"},
		{"core.taint_pages_per_reset", "pages"},
		{"core.attempts_per_app", "count"},
		{"core.flowlog_lines_per_app", "lines"},
		{"core.traced_insns_per_app", "insns"},

		{"static.analyze_ms.p50", "ms"},
		{"static.runs", "count"},
		{"static.reuses", "count"},

		{"summary.synthesize_ms", "ms"},
		{"summary.synths", "count"},
		{"summary.applied", "count"},
		{"summary.rejections", "count"},

		{"dex.validations", "count"},
		{"dex.check_hits", "count"},

		{"arm.native_insns_per_app", "insns"},
		{"arm.asm_assembles", "count"},
		{"arm.asm_cache_hits", "count"},
		{"arm.fast_block_share", "ratio"},
		{"arm.gate_flips", "count"},

		{"dvm.java_insns_per_app", "insns"},
		{"dvm.jni_crossings_per_app", "count"},
		{"dvm.fused_call_share", "ratio"},
		{"dvm.fuse_deopts", "count"},
		{"dvm.clean_frame_share", "ratio"},
		{"dvm.gate_bails", "count"},

		{"surface.events", "count"},
		{"surface.dropped", "count"},
		{"surface.truncated_apps", "count"},

		{"cas.hits", "count"},
		{"cas.misses", "count"},
		{"cas.puts", "count"},
		{"cas.hit_ratio", "ratio"},
		{"cas.store_mb", "MB"},
	}
	for _, m := range fig10Modes {
		defs = append(defs, metricDef{"score." + m.String(), "ops/s"})
	}
	for _, m := range fig10Modes[1:] {
		defs = append(defs, metricDef{"fig10.overhead." + m.String(), "x"})
	}
	for _, m := range fig10Modes {
		defs = append(defs, metricDef{"fig10.native_score." + m.String(), "ops/s"})
		defs = append(defs, metricDef{"fig10.java_score." + m.String(), "ops/s"})
	}
	for _, layer := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + layer, "share"})
	}
	return append(defs,
		metricDef{"go.alloc_mb_per_op", "MB"},
		metricDef{"go.peak_rss_mb", "MB"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"trace.overhead", "x"},
		metricDef{"trace.coverage", "ratio"},
		metricDef{"trace.bench_share", "ratio"},
	)
}()

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: market, resubmit or fig10")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.outDir, "outdir", ".bench_build", "directory for span files and temporary stores")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	stamp := machineStamp()
	fmt.Printf("stamp %s\n", stamp)

	var res *result
	var err error
	switch cfg.workload {
	case "market":
		res, err = runMarket(cfg)
	case "resubmit":
		res, err = runResubmit(cfg)
	case "fig10":
		res, err = runFig10(cfg)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return report(cfg, res)
}

// report prints the human-readable lines and then the JSON result line.
func report(cfg config, res *result) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if res.attempted > 0 {
			res.metrics["error_rate"] = float64(res.failed) / float64(res.attempted)
		}
		res.metrics["go.peak_rss_mb"] = rssHWMMB()
	}
	for _, p := range res.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(res.problems) == 0 && res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("metric %-34s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	if !cfg.trace {
		for _, d := range defs {
			if out.Metrics[d.name].Value <= 0 {
				fmt.Printf("FAIL end-to-end metric %s is not positive\n", d.name)
				out.Correct = false
			}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// machineStamp records what later comparisons need to tell machines and
// trees apart. The commit comes from run.sh (PERFBENCH_COMMIT); outside a git
// checkout it reads "none" and PERFBENCH_SOURCE (a digest of the sources)
// identifies the tree instead.
func machineStamp() string {
	nproc := runtime.NumCPU()
	st := map[string]interface{}{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      nproc,
		"commit":     envOr("PERFBENCH_COMMIT", "none"),
		"source":     envOr("PERFBENCH_SOURCE", "unknown"),
	}
	b, _ := json.Marshal(st) // a map of strings and ints always marshals
	return string(b)
}

func envOr(key, def string) string {
	if v := strings.TrimSpace(os.Getenv(key)); v != "" {
		return v
	}
	return def
}

// tempDir makes a private temporary directory under the output directory.
func tempDir(cfg config, name string) (string, error) {
	return os.MkdirTemp(cfg.outDir, "perfbench-"+name+"-")
}

// dirMB sums the sizes of the regular files under dir.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
