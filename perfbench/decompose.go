package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/static"
)

// decomposedPhases are the program-call spans of pass D, in analyzeOnce
// order; trace.coverage is their summed self time over the pass.
var decomposedPhases = []string{
	"core.fingerprint", "core.restore", "core.install", "core.analyzer",
	"static.analyze", "core.run", "core.crossvalidate",
}

// decomposer replays a submission through the public phase functions that
// core.Runner.analyzeOnce composes, one span per phase, on its own warm
// System and snapshot. The degradation ladder of core.AnalyzeApp is
// reproduced so degraded apps reach the same chain.
type decomposer struct {
	fp   *core.Runner // Runner.Fingerprint, and the summary cache
	sys  *core.System
	snap *core.Snapshot
	tr   *tracer

	counts                                 guestCounts
	resets, guestPages, taintPages         int
	fast, slow, flips, clean, taint, bails uint64
}

// newDecomposer boots the decomposer's Runner and System and warms them with
// the corpus (checked, untraced, uncounted).
func newDecomposer() (*decomposer, error) {
	fp, err := core.NewRunner()
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem()
	if err != nil {
		return nil, err
	}
	d := &decomposer{fp: fp, sys: sys, snap: sys.Snapshot()}
	for _, sub := range corpusSubs() {
		rep, _ := d.analyze(sub, -1)
		if err := checkKnown(sub.app, rep); err != nil {
			return nil, fmt.Errorf("decomposed warm-up: %w", err)
		}
	}
	return d.fresh(nil), nil
}

// fresh returns a decomposer on the same warm Runner and System with zeroed
// counters, recording into tr.
func (d *decomposer) fresh(tr *tracer) *decomposer {
	return &decomposer{fp: d.fp, sys: d.sys, snap: d.snap, tr: tr}
}

// decomposedPass runs submissions [from, to) through the decomposer twice
// each, untraced and traced into tr, alternating which goes first so neither
// gains from the other's warm caches; trace.overhead is the ratio of their
// summed wall times. Each traced result must match the service pass's in
// digest, degradation chain and flow log. It returns the traced decomposer
// (its counters) and the traced wall time.
func decomposedPass(res *result, dec *decomposer, stream *deckStream, from, to int, traced map[int]*svcOp, tr *tracer) (*decomposer, time.Duration) {
	plain, spans := dec.fresh(nil), dec.fresh(tr)
	var wallPlain, wallTraced time.Duration
	runPlain := func(sub submission, i int) {
		t0 := time.Now()
		plain.analyze(sub, i)
		wallPlain += time.Since(t0)
	}
	runTraced := func(sub submission, i int) {
		t0 := time.Now()
		rep, digest := spans.analyze(sub, i)
		cid := tr.open("bench.check", 0, i)
		if err := checkKnown(sub.app, rep); err != nil {
			res.fail("decomposed: %v", err)
		}
		t := traced[i]
		switch {
		case t == nil:
			res.fail("parity: submission %d (%s) missing from the traced service pass", i, sub.spec.Name)
		case t.digest != digest:
			res.fail("parity: %s digest %s (service) vs %s (decomposed)", sub.spec.Name, t.digest, digest)
		case t.chain != rep.ChainString():
			res.fail("parity: %s chain %s (service) vs %s (decomposed)", sub.spec.Name, t.chain, rep.ChainString())
		case t.log != logDigest(rep.Final.Result.LogLines):
			res.fail("parity: %s flow logs differ between service and decomposed paths", sub.spec.Name)
		}
		tr.done(cid)
		wallTraced += time.Since(t0)
	}
	for i := from; i < to; i++ {
		sub := stream.at(i)
		if i%2 == 0 {
			runPlain(sub, i)
			runTraced(sub, i)
		} else {
			runTraced(sub, i)
			runPlain(sub, i)
		}
	}
	res.metrics["trace.overhead"] = ratio(wallTraced.Seconds(), wallPlain.Seconds())
	return spans, wallTraced
}

// modeDown is core.AnalyzeApp's degradation ladder.
func modeDown(m core.Mode) (core.Mode, bool) {
	switch m {
	case core.ModeNDroid:
		return core.ModeTaintDroid, true
	case core.ModeTaintDroid:
		return core.ModeVanilla, true
	}
	return 0, false
}

func verdictForFault(f *fault.Fault) core.Verdict {
	if f.Kind == fault.BudgetExceeded {
		return core.VerdictTimeout
	}
	return core.VerdictFault
}

// analyze runs one submission decomposed and returns its report and app
// digest.
func (d *decomposer) analyze(sub submission, op int) (core.AppReport, string) {
	root := d.tr.open("market.decomposed", 0, op)
	defer d.tr.done(root)
	id := d.tr.open("core.fingerprint", root, op)
	fp, _, fpErr := d.fp.Fingerprint(sub.spec)
	d.tr.done(id)
	digest := fp.App
	if fpErr != nil {
		digest = ""
	}

	rep := core.AppReport{Name: sub.spec.Name}
	mode := core.ModeNDroid
	internalLeft := 1
	for {
		res := d.attempt(sub.spec, mode, root, op)
		att := core.Attempt{Mode: mode, Result: res}
		rep.Chain = append(rep.Chain, att)
		rep.Final = att
		if res.Verdict == core.VerdictFault && res.Fault != nil {
			if res.Fault.Kind == fault.InternalError && internalLeft > 0 {
				internalLeft--
				continue
			}
			if res.Fault.Layer == "arm" || res.Fault.Layer == "core" {
				if down, ok := modeDown(mode); ok {
					mode = down
					rep.Degraded = true
					continue
				}
			}
		}
		break
	}
	d.counts.add(countsOf(rep))
	return rep, digest
}

// attempt is one rung: restore, install, analyzer, static pins, run and
// cross-validation, with panics contained as in core.
func (d *decomposer) attempt(spec core.AppSpec, mode core.Mode, parent, op int) (res core.RunResult) {
	sys := d.sys
	defer func() {
		if rec := recover(); rec != nil {
			res.Fault = fault.FromPanic("core", rec)
			res.Verdict = verdictForFault(res.Fault)
		}
	}()
	faulted := func(err error) core.RunResult {
		f := fault.AsFault(err, "core")
		return core.RunResult{Verdict: verdictForFault(f), Fault: f}
	}

	id := d.tr.open("core.restore", parent, op)
	st, err := d.snap.Restore()
	d.tr.done(id)
	if err != nil {
		return faulted(err)
	}
	d.resets++
	d.guestPages += st.GuestPages
	d.taintPages += st.TaintPages

	id = d.tr.open("core.install", parent, op)
	err = spec.Install(sys)
	d.tr.done(id)
	if err != nil {
		return faulted(err)
	}

	id = d.tr.open("core.analyzer", parent, op)
	a := core.NewAnalyzer(sys, mode)
	a.Log.Enabled = true
	a.EnableSummaries(core.SummaryValidated, d.fp)
	d.tr.done(id)

	id = d.tr.open("static.analyze", parent, op)
	sr := static.Analyze(sys.VM, spec.EntryClass, spec.EntryMethod)
	sr.Apply(sys.VM)
	d.tr.done(id)

	cpu, vm := sys.CPU, sys.VM
	fast, slow, flips := cpu.GateFastBlocks, cpu.GateSlowBlocks, cpu.GateFlips
	clean, taint, bails := vm.JavaCleanFrames, vm.JavaTaintFrames, vm.JavaGateBails
	id = d.tr.open("core.run", parent, op)
	res = a.Run(spec.EntryClass, spec.EntryMethod, nil, nil)
	d.tr.done(id)
	d.fast += cpu.GateFastBlocks - fast
	d.slow += cpu.GateSlowBlocks - slow
	d.flips += cpu.GateFlips - flips
	d.clean += vm.JavaCleanFrames - clean
	d.taint += vm.JavaTaintFrames - taint
	d.bails += vm.JavaGateBails - bails

	id = d.tr.open("core.crossvalidate", parent, op)
	res.Static = sr
	res.StaticViolations = sr.CrossValidate(res.LogLines)
	d.tr.done(id)
	return res
}

// report sets the core, static, summary, arm, dvm and surface metrics of
// pass D.
func (d *decomposer) report(res *result) {
	dur := d.tr.durations()
	m := res.metrics
	m["core.fingerprint_ms.p50"] = median(dur["core.fingerprint"])
	m["core.restore_ms.p50"] = median(dur["core.restore"])
	m["core.install_ms.p50"] = median(dur["core.install"])
	m["core.run_ms.p50"] = median(dur["core.run"])
	m["core.run_ms.p99"] = quantile(dur["core.run"], 0.99)
	m["core.crossvalidate_ms.p50"] = median(dur["core.crossvalidate"])
	m["static.analyze_ms.p50"] = median(dur["static.analyze"])

	d.counts.report(res)
	m["core.guest_pages_per_reset"] = ratio(float64(d.guestPages), float64(d.resets))
	m["core.taint_pages_per_reset"] = ratio(float64(d.taintPages), float64(d.resets))
	m["arm.fast_block_share"] = ratio(float64(d.fast), float64(d.fast+d.slow))
	m["arm.gate_flips"] = float64(d.flips)
	m["dvm.clean_frame_share"] = ratio(float64(d.clean), float64(d.clean+d.taint))
	m["dvm.gate_bails"] = float64(d.bails)
}
