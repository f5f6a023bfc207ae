package main

// Helpers shared by the two service workloads (market and resubmit).

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/service"
)

const setupReps = 5 // set-ups per run; setup_s is their median

// svcOp is one completed service submission. It keeps digests and counts,
// not the report, so a long run does not hold every flow log in memory.
type svcOp struct {
	sub     submission
	lat     time.Duration
	verdict core.Verdict
	chain   string
	source  string
	digest  string
	log     [sha256.Size]byte
	counts  guestCounts
	checked error // known-answer failure
}

// newSvcOp checks a service result against its known answer and digests it.
func newSvcOp(sub submission, lat time.Duration, r service.Result) *svcOp {
	op := &svcOp{sub: sub, lat: lat, source: r.Source, digest: r.Digest}
	if r.Err != nil {
		op.checked = fmt.Errorf("%s: %w", sub.spec.Name, r.Err)
		return op
	}
	op.verdict = r.Report.Verdict()
	op.chain = r.Report.ChainString()
	op.log = logDigest(r.Report.Final.Result.LogLines)
	op.counts = countsOf(r.Report)
	op.checked = checkKnown(sub.app, r.Report)
	return op
}

func (o *svcOp) responsive() bool { return o.verdict != core.VerdictTimeout }

// guestCounts is the guest work one report records.
type guestCounts struct {
	apps, attempts, lines, traced, native, java   float64
	crossings, fused, deopts, applied, rejections float64
	events, dropped, truncated                    float64
}

// countsOf sums work over every attempt of the chain; the flow log and
// surface map are the final attempt's.
func countsOf(rep core.AppReport) guestCounts {
	c := guestCounts{apps: 1, attempts: float64(len(rep.Chain))}
	for _, att := range rep.Chain {
		a := att.Result
		c.traced += float64(a.TracedInsns)
		c.native += float64(a.NativeInsns)
		c.java += float64(a.JavaInsns)
		c.crossings += float64(a.JNICrossings)
		c.fused += float64(a.FusedCalls)
		c.deopts += float64(a.FuseDeopts)
		c.applied += float64(a.SummaryApplied)
		c.rejections += float64(len(a.SummaryRejections))
	}
	r := rep.Final.Result
	c.lines = float64(len(r.LogLines))
	if m := r.Surface; m != nil {
		c.events = float64(m.Events)
		c.dropped = float64(m.Dropped)
		if m.Truncated {
			c.truncated = 1
		}
	}
	return c
}

func (c *guestCounts) add(o guestCounts) {
	c.apps += o.apps
	c.attempts += o.attempts
	c.lines += o.lines
	c.traced += o.traced
	c.native += o.native
	c.java += o.java
	c.crossings += o.crossings
	c.fused += o.fused
	c.deopts += o.deopts
	c.applied += o.applied
	c.rejections += o.rejections
	c.events += o.events
	c.dropped += o.dropped
	c.truncated += o.truncated
}

// report sets the per-app core, arm, dvm, summary and surface metrics.
func (c guestCounts) report(res *result) {
	m := res.metrics
	m["core.attempts_per_app"] = ratio(c.attempts, c.apps)
	m["core.flowlog_lines_per_app"] = ratio(c.lines, c.apps)
	m["core.traced_insns_per_app"] = ratio(c.traced, c.apps)
	m["arm.native_insns_per_app"] = ratio(c.native, c.apps)
	m["dvm.java_insns_per_app"] = ratio(c.java, c.apps)
	m["dvm.jni_crossings_per_app"] = ratio(c.crossings, c.apps)
	m["dvm.fused_call_share"] = ratio(c.fused, c.crossings)
	m["dvm.fuse_deopts"] = c.deopts
	m["summary.applied"] = c.applied
	m["summary.rejections"] = c.rejections
	m["surface.events"] = c.events
	m["surface.dropped"] = c.dropped
	m["surface.truncated_apps"] = c.truncated
}

// corpusSubs is the unpadded corpus, submitted once per set-up so lazy
// state (Go heap growth, first translations) is paid before timing.
func corpusSubs() []submission {
	var subs []submission
	for _, a := range apps.AllApps() {
		subs = append(subs, newSubmission(a, 0))
	}
	return subs
}

// warm submits subs one at a time and checks each known answer.
func warm(svc *service.Service, subs []submission) ([]*svcOp, error) {
	var ops []*svcOp
	for _, s := range subs {
		op := newSvcOp(s, 0, <-svc.Submit(s.spec))
		if op.checked != nil {
			return nil, fmt.Errorf("set-up: %w", op.checked)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// setupService boots a service and warms it with the corpus setupReps
// times, keeping the last one; it returns the median set-up time.
func setupService(opts service.Options, newStore func() (*cas.Store, error)) (*service.Service, []*svcOp, float64, error) {
	var times []float64
	var svc *service.Service
	var ops []*svcOp
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			svc.Close()
		}
		t0 := time.Now()
		if newStore != nil {
			st, err := newStore()
			if err != nil {
				return nil, nil, 0, err
			}
			opts.Cache = st
		}
		var err error
		if svc, err = service.New(opts); err != nil {
			return nil, nil, 0, err
		}
		if ops, err = warm(svc, corpusSubs()); err != nil {
			svc.Close()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return svc, ops, median(times), nil
}

// tally counts attempted and failed operations and records the failures.
func tally(res *result, ops map[int]*svcOp) {
	for _, op := range ops {
		res.attempted++
		if op.checked != nil {
			res.failed++
			if len(res.problems) < 20 {
				res.fail("%v", op.checked)
			}
		}
	}
}

// latencies splits service latencies in ms by predicate.
func latencies(ops map[int]*svcOp, keep func(*svcOp) bool) []float64 {
	var out []float64
	for _, op := range ops {
		if keep(op) {
			out = append(out, ms(op.lat))
		}
	}
	return out
}

// endToEndService sets the shared end-to-end metrics for a service pass:
// responsive verdicts per second, and the latency percentiles of the
// responsive submissions that timed keeps.
func endToEndService(res *result, ops map[int]*svcOp, wall time.Duration, timed func(*svcOp) bool) {
	resp := latencies(ops, (*svcOp).responsive)
	res.metrics["apps_per_s"] = ratio(float64(len(resp)), wall.Seconds())
	lat := latencies(ops, func(o *svcOp) bool { return o.responsive() && timed(o) })
	res.metrics["verdict_ms.p50"] = quantile(lat, 0.50)
	res.metrics["verdict_ms.p99"] = quantile(lat, 0.99)
	if len(lat) < 1000 {
		fmt.Printf("note: %d timed verdicts; verdict_ms.p99 needs at least 1000\n", len(lat))
	}
}

// sourceLatencies sets timeout_ms.p50, replay_ms.* and fresh_ms.p50.
func sourceLatencies(res *result, ops map[int]*svcOp) {
	res.metrics["timeout_ms.p50"] = median(latencies(ops, func(o *svcOp) bool { return !o.responsive() }))
	replay := latencies(ops, func(o *svcOp) bool { return o.source == "verdict-cache" })
	res.metrics["replay_ms.p50"] = quantile(replay, 0.50)
	res.metrics["replay_ms.p99"] = quantile(replay, 0.99)
	res.metrics["fresh_ms.p50"] = median(latencies(ops, func(o *svcOp) bool { return o.source == "computed" }))
}

// serviceLayer sets the service counters of the traced pass (st minus the
// before snapshot), the static, dex, summary-synthesis and asm counters
// Close folds into st.Runner (these include the pass's warm-up), and the
// traced Submit/wait spans.
func serviceLayer(res *result, before, st service.Stats, tr *tracer) {
	d := tr.durations()
	res.metrics["service.submit_ms.p50"] = median(d["service.submit"])
	res.metrics["service.wait_ms.p99"] = quantile(d["service.wait"], 0.99)
	hits := st.VerdictHits - before.VerdictHits
	res.metrics["service.computed"] = float64(st.Computed - before.Computed)
	res.metrics["service.verdict_hits"] = float64(hits)
	res.metrics["service.deduped"] = float64(st.Deduped - before.Deduped)
	res.metrics["service.verdict_hit_ratio"] = ratio(float64(hits), float64(st.Submitted-before.Submitted))
	r := st.Runner
	res.metrics["static.runs"] = float64(r.StaticRuns)
	res.metrics["static.reuses"] = float64(r.StaticReuses)
	res.metrics["summary.synths"] = float64(r.SummarySynths)
	res.metrics["dex.validations"] = float64(r.DexValidations)
	res.metrics["dex.check_hits"] = float64(r.DexCheckHits)
	res.metrics["arm.asm_assembles"] = float64(r.AsmAssembles)
	res.metrics["arm.asm_cache_hits"] = float64(r.AsmCacheHits)
}

func opMap(ops []*svcOp) map[int]*svcOp {
	m := make(map[int]*svcOp, len(ops))
	for i, op := range ops {
		m[i] = op
	}
	return m
}
