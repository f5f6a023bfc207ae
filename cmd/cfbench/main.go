// Command cfbench reproduces the paper's Fig. 10: it runs the CF-Bench-style
// workload suite under the analysis modes and prints the per-row overhead
// table (vanilla score plus the slowdown factor of each instrumented mode).
// It then runs every ablation of the cfbench harness (snapshot, fuse, cache,
// surface, summaries) and exits nonzero if any arm breaks verdict/flow-log
// parity with its baseline or fails its ablation's gate.
//
// Usage:
//
//	cfbench                        # full-size run, all four modes, every ablation
//	cfbench -scale 10              # quick run
//	cfbench -repeats 3             # best-of-3 per cell (and snapshot ablation passes)
//	cfbench -json BENCH_fig10.json # also write machine-readable results
//	cfbench -java-ablation         # Java rows only, translation engine on vs off
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cfbench"
	"repro/internal/core"
)

func main() {
	scale := flag.Int("scale", 1, "divide workload sizes by this factor")
	repeats := flag.Int("repeats", 3, "measurements per cell (best kept)")
	jsonPath := flag.String("json", "", "write results as JSON to this file (e.g. BENCH_fig10.json)")
	javaAblation := flag.Bool("java-ablation", false, "run only the Java rows, translation engine on vs off")
	flag.Parse()

	if *javaAblation {
		runJavaAblation(*scale, *repeats)
		return
	}

	modes := []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}
	res, err := cfbench.Run(modes, *scale, *repeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res.Report())
	res.Verdicts = cfbench.VerdictSweep(0)
	fmt.Println("Contained corpus sweep:", res.Verdicts)
	pins, err := cfbench.PinSweep(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfbench: pin sweep:", err)
		os.Exit(1)
	}
	res.Pins = pins
	fmt.Println("Static pin precision:")
	fmt.Println(cfbench.PinReport(pins))
	failed, err := runAblations(res, *repeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfbench:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		data, err := res.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfbench: marshal:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cfbench: write:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *jsonPath)
	}
	fmt.Println("Paper reference (Fig. 10): NDroid overall 5.45x vs vanilla; DroidScope >= 11x.")
	fmt.Println("Absolute factors compress on this substrate (interpreter baseline vs QEMU-")
	fmt.Println("translated code); the orderings are the reproduced result — see EXPERIMENTS.md.")
	if len(failed) > 0 {
		fmt.Fprintln(os.Stderr, "cfbench: ablations failed (see above):", strings.Join(failed, ", "))
		os.Exit(1)
	}
}

// runAblations runs every ablation with its cache store in a temporary
// directory, prints each result, and appends it to res. It returns the names
// of the ablations that failed parity or their gate.
func runAblations(res *cfbench.Result, repeats int) ([]string, error) {
	dir, err := os.MkdirTemp("", "ndroid-cas-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	abls, err := cfbench.Ablations(0, repeats, dir)
	if err != nil {
		return nil, err
	}
	var failed []string
	for _, a := range abls {
		r, err := a.Run()
		if err != nil {
			return nil, err
		}
		res.Ablations = append(res.Ablations, r)
		fmt.Printf("Ablation %s:\n%s\n", r.Name, r)
		if !r.ParityOK || !r.GateOK {
			failed = append(failed, r.Name)
		}
	}
	return failed, nil
}

// runJavaAblation measures every Java row under vanilla and NDroid with the
// DVM translation engine enabled versus disabled, reporting the speedup the
// method-granular translator delivers over the per-instruction interpreter.
func runJavaAblation(scale, repeats int) {
	if scale < 1 {
		scale = 1
	}
	if repeats < 1 {
		repeats = 1
	}
	best := func(f func() (float64, cfbench.GateStats, error)) (float64, cfbench.GateStats) {
		top, topGS := 0.0, cfbench.GateStats{}
		for r := 0; r < repeats; r++ {
			s, gs, err := f()
			if err != nil {
				fmt.Fprintln(os.Stderr, "cfbench:", err)
				os.Exit(1)
			}
			if s > top {
				top, topGS = s, gs
			}
		}
		return top, topGS
	}
	fmt.Printf("%-20s %-10s %15s %15s %8s\n", "Java row", "mode", "translated", "interpreted", "speedup")
	for _, mode := range []core.Mode{core.ModeVanilla, core.ModeNDroid} {
		for _, w := range cfbench.Workloads() {
			if !w.Java {
				continue
			}
			w := w
			on, gs := best(func() (float64, cfbench.GateStats, error) { return cfbench.Measure(w, mode, scale) })
			off, _ := best(func() (float64, cfbench.GateStats, error) { return cfbench.MeasureNoJavaTranslate(w, mode, scale) })
			speed := 0.0
			if off > 0 {
				speed = on / off
			}
			fmt.Printf("%-20s %-10s %15.0f %15.0f %7.2fx  (%d methods, %d clean, %d taint frames)\n",
				w.Name, mode, on, off, speed, gs.JavaTransMethods, gs.JavaCleanFrames, gs.JavaTaintFrames)
		}
	}
}
