package main

// The fig10 workload: the paper's CF-Bench experiment (§VI-E, Fig. 10).
// Thirteen rows under four modes make 52 cells; each measurement is one
// public cfbench.Measure call (fresh System, install, analyzer, timed guest
// run). Every pass measures all 52 cells once, in a seeded interleaved order
// so drift does not bias one mode. One thread; no service, store, static
// pass or summaries.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cfbench"
	"repro/internal/core"
)

var fig10Modes = []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}

// paperOverhead is Fig. 10's overall overhead over vanilla, for reference
// beside fig10.overhead.* (the paper gives no overall TaintDroid figure).
var paperOverhead = map[core.Mode]string{
	core.ModeTaintDroid: "n/a",
	core.ModeNDroid:     "5.45x",
	core.ModeDroidScope: ">= 11x",
}

type cell struct {
	w    cfbench.Workload
	mode core.Mode
}

// cellTiming is one timed measurement of one cell: the call's wall time and
// the score cfbench.Measure derived from the guest run alone.
type cellTiming struct {
	cell  int
	dur   time.Duration
	score float64
	gate  cfbench.GateStats
}

func allCells() []cell {
	var cells []cell
	for _, w := range cfbench.Workloads() {
		for _, m := range fig10Modes {
			cells = append(cells, cell{w: w, mode: m})
		}
	}
	return cells
}

// fig10Pass runs every cell once in a seeded order.
func fig10Pass(cells []cell, rng *rand.Rand, tr *tracer, pass int, res *result) []cellTiming {
	var out []cellTiming
	for _, i := range rng.Perm(len(cells)) {
		c := cells[i]
		id := tr.open("cfbench.measure", 0, pass*len(cells)+i)
		t0 := time.Now()
		score, gate, err := cfbench.Measure(c.w, c.mode, 1)
		d := time.Since(t0)
		tr.done(id)
		res.attempted++
		if err != nil {
			res.failed++
			res.fail("%s under %s: %v", c.w.Name, c.mode, err)
			continue
		}
		out = append(out, cellTiming{cell: i, dur: d, score: score, gate: gate})
	}
	return out
}

// fig10Setup measures every cell once (first-run code paths, Go heap
// growth), setupReps times, and returns the median time.
func fig10Setup(cells []cell) (float64, error) {
	var times []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		for _, c := range cells {
			if _, _, err := cfbench.Measure(c.w, c.mode, 1); err != nil {
				return 0, fmt.Errorf("set-up measure of %s under %s: %w", c.w.Name, c.mode, err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// fig10Passes runs whole passes until the deadline (or n passes when n > 0).
func fig10Passes(cells []cell, rng *rand.Rand, n int, deadline time.Time, tr *tracer, res *result) ([]cellTiming, int, time.Duration) {
	var all []cellTiming
	start := time.Now()
	passes := 0
	for (n > 0 && passes < n) || (n <= 0 && time.Now().Before(deadline)) {
		all = append(all, fig10Pass(cells, rng, tr, passes, res)...)
		passes++
	}
	return all, passes, time.Since(start)
}

// scores sets score.<mode> (geometric mean over the rows of each cell's
// median nominal ops/s) and the native/Java splits and overheads.
func scores(res *result, cells []cell, timings []cellTiming) {
	perCell := make(map[int][]float64)
	for _, t := range timings {
		perCell[t.cell] = append(perCell[t.cell], t.score)
	}
	for _, m := range fig10Modes {
		var all, native, java []float64
		for i, c := range cells {
			if c.mode != m {
				continue
			}
			s := median(perCell[i])
			all = append(all, s)
			if c.w.Java {
				java = append(java, s)
			} else {
				native = append(native, s)
			}
		}
		res.metrics["score."+m.String()] = geomean(all)
		res.metrics["fig10.native_score."+m.String()] = geomean(native)
		res.metrics["fig10.java_score."+m.String()] = geomean(java)
	}
	van := res.metrics["score."+core.ModeVanilla.String()]
	for _, m := range fig10Modes[1:] {
		o := ratio(van, res.metrics["score."+m.String()])
		res.metrics["fig10.overhead."+m.String()] = o
		fmt.Printf("fig10.overhead.%s %.2fx (paper: %s)\n", m, o, paperOverhead[m])
	}
}

func runFig10(cfg config) (*result, error) {
	res := newResult()
	cells := allCells()
	setupS, err := fig10Setup(cells)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	if !cfg.trace {
		heap := startHeap()
		timings, passes, _ := fig10Passes(cells, rng, 0, time.Now().Add(secs(cfg.seconds)), nil, res)
		res.metrics["peak_heap_mb"] = heap.finish()
		// Each cell's median time over the passes, so a burst of host
		// contention during a few passes does not move the result.
		perCell := make(map[int][]float64)
		for _, t := range timings {
			perCell[t.cell] = append(perCell[t.cell], ms(t.dur))
		}
		var medians []float64
		var pass float64
		for i := range cells {
			m := median(perCell[i])
			medians = append(medians, m)
			pass += m
		}
		res.metrics["setup_s"] = setupS
		res.metrics["apps_per_s"] = ratio(float64(len(cells)), pass/1000)
		res.metrics["verdict_ms.p50"] = quantile(medians, 0.50)
		res.metrics["verdict_ms.p99"] = quantile(medians, 0.99)
		fmt.Printf("fig10: %d passes, %d cell runs\n", passes, len(timings))
		return res, nil
	}

	// Pass U: untraced for a third of the time; scores come from it.
	probe := startAlloc()
	timingsU, passes, wallU := fig10Passes(cells, rng, 0, time.Now().Add(secs(cfg.seconds/3)), nil, res)
	probe.stop(res, len(timingsU))
	scores(res, cells, timingsU)

	// Pass T: as many passes again, traced.
	tr := newTracer("cfbench")
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	timingsT, _, wallT := fig10Passes(cells, rng, passes, time.Time{}, tr, res)
	if err := prof.stop(res, traceFile(cfg, "cpu", "pprof")); err != nil {
		return nil, err
	}
	res.metrics["trace.overhead"] = ratio(wallT.Seconds(), wallU.Seconds())
	traceShares(res, tr, wallT, []string{"cfbench.measure"}, nil)

	var fast, slow, flips, clean, taint, bails float64
	for _, t := range timingsT {
		fast += float64(t.gate.FastBlocks)
		slow += float64(t.gate.SlowBlocks)
		flips += float64(t.gate.Flips)
		clean += float64(t.gate.JavaCleanFrames)
		taint += float64(t.gate.JavaTaintFrames)
		bails += float64(t.gate.JavaGateBails)
	}
	res.metrics["arm.fast_block_share"] = ratio(fast, fast+slow)
	res.metrics["arm.gate_flips"] = flips
	res.metrics["dvm.clean_frame_share"] = ratio(clean, clean+taint)
	res.metrics["dvm.gate_bails"] = bails
	if err := writeSpans(traceFile(cfg, "spans", "jsonl"), tr); err != nil {
		return nil, err
	}
	fmt.Printf("fig10: %d passes per traced half; U %.2fs, T %.2fs\n", passes, wallU.Seconds(), wallT.Seconds())
	return res, nil
}
