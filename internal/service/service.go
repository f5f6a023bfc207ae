// Package service turns the one-shot analyzer into analysis-as-a-service: a
// long-running submission pipeline in front of core.AnalyzeApp.
//
// A submission is fingerprinted first (content digest of everything its
// Install adds to the warm System — display names excluded), and the digest
// drives the whole pipeline:
//
//   - Scheduling: every worker pulls from one shared bounded queue, so the
//     pool is work-conserving — no worker idles while a job waits, and a
//     budget-bound app occupies one worker instead of stalling the apps
//     queued behind it.
//   - Single-flight dedup: concurrent submissions of the same digest run the
//     analysis once; every submitter receives the one result.
//   - Short-circuit: with a persistent artifact store attached, a re-submitted
//     digest is answered from its cached verdict record without running.
//
// Each worker owns one fork-server Runner (boot once, restore per attempt)
// wired to the shared artifact store, so static results, assembled library
// images, and dex validation verdicts flow between workers and across process
// lifetimes. Backpressure is the job queue: when the workers fall behind,
// Submit blocks rather than buffering unboundedly.
//
// Results stream: as each submission completes, one JSON line is written to
// Options.Out (when set) and the submitter's channel is fulfilled. Caching
// never changes an outcome — a cached verdict replays the chain, verdict, and
// flow log byte-for-byte (the parity suite in the apps package holds service
// runs identical to RunStudyParallel in every cache mode).
package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/surface"
)

// Options configures a Service.
type Options struct {
	// Workers is the worker count; each worker owns one fork-server Runner.
	// Defaults to 1.
	Workers int
	// QueueDepth bounds the shared job queue at QueueDepth jobs per worker;
	// a full queue blocks Submit (backpressure). Defaults to 4.
	QueueDepth int
	// Cache is the persistent artifact store shared by every worker and the
	// fingerprint stage. Nil runs the service fully in-memory: dedup still
	// works, verdict short-circuiting does not.
	Cache *cas.Store
	// Analyze is the base analysis configuration applied to every submission.
	// Its Runner field is owned by the service and overwritten per worker.
	Analyze core.AnalyzeOptions
	// Out, when set, receives one JSON line per completed submission, in
	// completion order.
	Out io.Writer
}

// Stats counts pipeline activity since New.
type Stats struct {
	Submitted   int // submissions accepted
	Computed    int // analyses actually run on a worker
	VerdictHits int // submissions answered from a cached verdict record
	Deduped     int // submissions that joined an in-flight twin

	// Runner aggregates fork-server and artifact traffic across the
	// fingerprint runner and every worker (snapshot resets, static/asm/dex
	// cache hits, absorbed cache faults). Live worker counters are folded in
	// on Close.
	Runner core.RunnerStats
}

// Result is one completed submission.
type Result struct {
	Name   string         // submission display name
	Digest string         // content digest (Fingerprint.App)
	Report core.AppReport // full degradation chain and final outcome
	Diags  []string       // load-time dex validation diagnostics
	// Source tells where the verdict came from: "computed" (a worker ran the
	// analysis), "verdict-cache" (replayed from the artifact store), or
	// "dedup" (joined a concurrent identical submission).
	Source string
	Err    error // submission-level failure (install fault, closed service)
}

type waiter struct {
	name string
	ch   chan Result
}

// flight is one in-progress computation of a digest; concurrent identical
// submissions append themselves as waiters instead of starting a twin run.
type flight struct {
	digest string
	diags  []string
	wait   []waiter
}

type job struct {
	spec core.AppSpec
	fp   core.Fingerprint
	fl   *flight
}

// Service is a running analysis pipeline. Create with New, feed with Submit,
// drain and stop with Close.
type Service struct {
	opts Options
	// queue is the job queue every worker pulls from. Its QueueDepth*Workers
	// capacity keeps Options.QueueDepth a per-worker backpressure bound.
	queue chan job
	wg    sync.WaitGroup // workers

	digestMu sync.Mutex
	digester *core.Runner // fingerprint + validation stage (serialized)

	flightMu sync.Mutex
	flights  map[string]*flight
	closed   bool
	// submits counts Submits past the closed check; Close waits for them
	// before closing the queue they may still send on.
	submits sync.WaitGroup

	outMu sync.Mutex

	statsMu sync.Mutex
	stats   Stats

	// testFlightGap, when set (tests only), runs after a submission registers
	// its flight and before it checks the verdict cache or enqueues — the
	// window a concurrent twin submission must land in to exercise dedup.
	testFlightGap func(digest string)
	// testWorkerGap, when set (tests only), runs on a worker after it takes a
	// job and before it analyzes it — blocking there parks that worker.
	testWorkerGap func(digest string)
}

// New boots the fingerprint runner and one Runner per worker, all wired to
// opts.Cache, and starts the workers.
func New(opts Options) (*Service, error) {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.QueueDepth < 1 {
		opts.QueueDepth = 4
	}
	digester, err := core.NewCachedRunner(opts.Cache)
	if err != nil {
		return nil, err
	}
	s := &Service{
		opts:     opts,
		digester: digester,
		flights:  make(map[string]*flight),
		queue:    make(chan job, opts.QueueDepth*opts.Workers),
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Submit fingerprints the app and routes it through the pipeline. The
// returned channel delivers exactly one Result and is then closed. Submit
// blocks while the job queue is full (backpressure); results are buffered,
// so submitting an entire corpus before reading any result cannot deadlock.
func (s *Service) Submit(spec core.AppSpec) <-chan Result {
	ch := make(chan Result, 1)
	fail := func(err error) <-chan Result {
		ch <- Result{Name: spec.Name, Err: err}
		close(ch)
		return ch
	}

	s.flightMu.Lock()
	if s.closed {
		s.flightMu.Unlock()
		return fail(fmt.Errorf("service: submit after Close"))
	}
	s.submits.Add(1)
	s.flightMu.Unlock()
	defer s.submits.Done()

	s.bumpStat(func(st *Stats) { st.Submitted++ })

	s.digestMu.Lock()
	fp, diags, err := s.digester.Fingerprint(spec)
	s.digestMu.Unlock()
	if err != nil {
		// A failing Install is an analyzable outcome, not a pipeline error:
		// queue it under a synthetic digest and let the degradation ladder
		// produce the same contained fault report a study run would. The
		// display name joins the digest here — with no content to hash there
		// is nothing safe to dedup across names.
		fp = core.Fingerprint{App: cas.DigestStrings(
			"install-fault", spec.Name, spec.EntryClass, spec.EntryMethod, err.Error())}
		fp.Static = fp.App
		diags = []string{err.Error()}
	}

	// Single-flight: join an in-progress twin or register a new flight.
	s.flightMu.Lock()
	if fl, ok := s.flights[fp.App]; ok {
		fl.wait = append(fl.wait, waiter{name: spec.Name, ch: ch})
		s.flightMu.Unlock()
		s.bumpStat(func(st *Stats) { st.Deduped++ })
		return ch
	}
	fl := &flight{digest: fp.App, diags: diags, wait: []waiter{{name: spec.Name, ch: ch}}}
	s.flights[fp.App] = fl
	s.flightMu.Unlock()

	if hook := s.testFlightGap; hook != nil {
		hook(fp.App)
	}

	// Verdict short-circuit: a digest this store has already judged under
	// these analysis options replays without running.
	if rep, ok := s.loadVerdict(fp); ok {
		rep.Name = spec.Name
		s.bumpStat(func(st *Stats) { st.VerdictHits++ })
		s.finish(fl, rep, "verdict-cache")
		return ch
	}

	s.queue <- job{spec: spec, fp: fp, fl: fl}
	return ch
}

// worker is one fork-server Runner serving the shared queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	// A failed warm boot degrades the worker to fresh-System attempts; the
	// per-attempt path reports any persistent boot fault itself.
	runner, _ := core.NewCachedRunner(s.opts.Cache)
	for j := range s.queue {
		if hook := s.testWorkerGap; hook != nil {
			hook(j.fp.App)
		}
		aOpts := s.opts.Analyze
		aOpts.Runner = runner
		rep := core.AnalyzeApp(j.spec, aOpts)
		s.storeVerdict(j.fp, rep)
		s.bumpStat(func(st *Stats) { st.Computed++ })
		s.finish(j.fl, rep, "computed")
	}
	if runner != nil {
		s.bumpStat(func(st *Stats) { addRunnerStats(&st.Runner, runner.Stats) })
	}
}

// finish retires a flight: removes it from the in-flight table and fulfills
// every waiter (the originator with source, twins as "dedup").
func (s *Service) finish(fl *flight, rep core.AppReport, source string) {
	s.flightMu.Lock()
	delete(s.flights, fl.digest)
	waiters := fl.wait
	s.flightMu.Unlock()

	for i, w := range waiters {
		src := source
		if i > 0 {
			src = "dedup"
		}
		r := rep
		r.Name = w.name
		res := Result{Name: w.name, Digest: fl.digest, Report: r, Diags: fl.diags, Source: src}
		s.emit(res)
		w.ch <- res
		close(w.ch)
	}
}

// Close drains the job queue, stops the workers, and folds their Runner
// stats into Stats. Submissions already accepted complete; Submit afterwards
// fails fast.
func (s *Service) Close() {
	s.flightMu.Lock()
	if s.closed {
		s.flightMu.Unlock()
		return
	}
	s.closed = true
	s.flightMu.Unlock()

	s.submits.Wait()
	close(s.queue)
	s.wg.Wait()
	s.bumpStat(func(st *Stats) { addRunnerStats(&st.Runner, s.digester.Stats) })
}

// Stats snapshots the pipeline counters. Runner counters — the fingerprint
// stage's and every worker's — are folded in by Close.
func (s *Service) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// Cache exposes the service's artifact store (nil when running in-memory).
func (s *Service) Cache() *cas.Store { return s.opts.Cache }

func (s *Service) bumpStat(f func(*Stats)) {
	s.statsMu.Lock()
	f(&s.stats)
	s.statsMu.Unlock()
}

// resultLine is the streamed JSON-lines schema, one object per completed
// submission.
type resultLine struct {
	App      string   `json:"app"`
	Digest   string   `json:"digest"`
	Verdict  string   `json:"verdict"`
	Chain    string   `json:"chain"`
	Degraded bool     `json:"degraded,omitempty"`
	Source   string   `json:"source"`
	Leaks    int      `json:"leaks"`
	LogLines int      `json:"log_lines"`
	Fault    string   `json:"fault,omitempty"`
	Diags    []string `json:"diags,omitempty"`
	Error    string   `json:"error,omitempty"`
	// Surface summary: unique JNI boundaries discovered, observer events
	// recorded, and whether the map hit its event budget (flood truncation).
	SurfaceBoundaries int  `json:"surface_boundaries,omitempty"`
	SurfaceEvents     int  `json:"surface_events,omitempty"`
	SurfaceTruncated  bool `json:"surface_truncated,omitempty"`
}

func (s *Service) emit(res Result) {
	if s.opts.Out == nil {
		return
	}
	line := resultLine{
		App:      res.Name,
		Digest:   res.Digest,
		Source:   res.Source,
		Diags:    res.Diags,
		Degraded: res.Report.Degraded,
	}
	if res.Err != nil {
		line.Error = res.Err.Error()
	} else {
		line.Verdict = res.Report.Verdict().String()
		line.Chain = res.Report.ChainString()
		line.Leaks = len(res.Report.Final.Result.Leaks)
		line.LogLines = len(res.Report.Final.Result.LogLines)
		if f := res.Report.Final.Result.Fault; f != nil {
			line.Fault = f.Error()
		}
		if m := res.Report.Final.Result.Surface; m != nil {
			line.SurfaceBoundaries = m.UniqueBoundaries
			line.SurfaceEvents = m.Events
			line.SurfaceTruncated = m.Truncated
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.outMu.Lock()
	s.opts.Out.Write(append(b, '\n'))
	s.outMu.Unlock()
}

// --- persistent verdict records ---------------------------------------------

// KindVerdict holds verdictRecord payloads: the final outcome of one app
// digest under one analysis configuration. Keyed by verdictKey, not the bare
// app digest — mode, budget, fusion, flow-log capture, and static level all
// change what a run produces.
var KindVerdict = cas.Kind{Name: "verdict", Schema: "v4 service.verdictRecord binary: json head (chain,final_lines,leaks,counters,surface) + final_log text"}

// addRunnerStats folds one Runner's counters into an aggregate.
func addRunnerStats(dst *core.RunnerStats, s core.RunnerStats) {
	dst.Boots += s.Boots
	dst.Resets += s.Resets
	dst.GuestPagesReset += s.GuestPagesReset
	dst.TaintPagesReset += s.TaintPagesReset
	dst.StaticRuns += s.StaticRuns
	dst.StaticReuses += s.StaticReuses
	dst.StaticDiskHits += s.StaticDiskHits
	dst.DexValidations += s.DexValidations
	dst.DexCheckHits += s.DexCheckHits
	dst.AsmCacheHits += s.AsmCacheHits
	dst.AsmAssembles += s.AsmAssembles
	dst.CacheFaults += s.CacheFaults
	dst.JNICrossings += s.JNICrossings
	dst.SummarySynths += s.SummarySynths
	dst.SummaryReuses += s.SummaryReuses
	dst.SummaryDiskHits += s.SummaryDiskHits
}

type attemptRecord struct {
	Mode    string          `json:"mode"`
	Verdict string          `json:"verdict"`
	Fault   *fault.Portable `json:"fault,omitempty"`
}

// verdictRecord is the persistent form of an AppReport. The final attempt
// keeps its full flow log so a replayed verdict is byte-identical to the
// computed one; intermediate chain attempts keep mode, verdict, and fault
// (what ChainString and the study tallies consume).
//
// The flow log is stored as one text of logSep-terminated lines after the
// record's JSON head (MarshalBinary): a JSON array decodes element by
// element through reflection, and even one JSON string makes the decoder
// scan, validate and copy a flood app's megabytes several times, which made
// the log most of a warm replay's cost. A log with a line that itself holds
// logSep keeps the array form inside the head.
type verdictRecord struct {
	Chain       []attemptRecord `json:"chain"`
	Degraded    bool            `json:"degraded,omitempty"`
	Thrown      bool            `json:"thrown,omitempty"`
	FinalLog    string          `json:"-"`
	FinalLines  []string        `json:"final_lines,omitempty"`
	LogHash     string          `json:"log_hash"`
	Leaks       []core.Leak     `json:"leaks,omitempty"`
	JavaInsns   uint64          `json:"java_insns"`
	NativeInsns uint64          `json:"native_insns"`
	// Surface is the final attempt's JNI surface map, persisted so a warm
	// verdict replay emits the exact map the computed run produced even
	// though the replay observes zero live crossings.
	Surface      *surface.Map `json:"surface,omitempty"`
	JNICrossings uint64       `json:"jni_crossings,omitempty"`
}

// verdictKey binds the app digest to every analysis option that can change
// the outcome or its captured artifacts.
func verdictKey(fp core.Fingerprint, o core.AnalyzeOptions) string {
	mode := o.Mode
	if mode == 0 {
		mode = core.ModeNDroid
	}
	return cas.DigestStrings(fp.App, mode.String(),
		fmt.Sprintf("fuse=%d", int(o.Fuse)),
		fmt.Sprintf("budget=%d", o.Budget),
		fmt.Sprintf("flowlog=%t", o.FlowLog),
		fmt.Sprintf("static=%d", int(o.Static)),
		fmt.Sprintf("retries=%d", o.InternalRetries),
		fmt.Sprintf("surface=%d", int(o.Surface)),
		fmt.Sprintf("summaries=%d", int(o.Summaries)))
}

func (s *Service) storeVerdict(fp core.Fingerprint, rep core.AppReport) {
	if s.opts.Cache == nil {
		return
	}
	lines := rep.Final.Result.LogLines
	rec := verdictRecord{
		Degraded:     rep.Degraded,
		Thrown:       rep.Final.Result.Thrown,
		LogHash:      cas.DigestStrings(lines...),
		Leaks:        rep.Final.Result.Leaks,
		JavaInsns:    rep.Final.Result.JavaInsns,
		NativeInsns:  rep.Final.Result.NativeInsns,
		Surface:      rep.Final.Result.Surface,
		JNICrossings: rep.Final.Result.JNICrossings,
	}
	rec.FinalLog, rec.FinalLines = encodeLog(lines)
	for _, att := range rep.Chain {
		rec.Chain = append(rec.Chain, attemptRecord{
			Mode:    att.Mode.String(),
			Verdict: att.Result.Verdict.String(),
			Fault:   att.Result.Fault.Portable(),
		})
	}
	// Best-effort: a failed Put costs the short-circuit, nothing else.
	_ = s.opts.Cache.Put(KindVerdict, verdictKey(fp, s.opts.Analyze), &rec)
}

// MarshalBinary is the record's store form: the little-endian length of its
// JSON head, the head, then the raw final_log text.
func (r *verdictRecord) MarshalBinary() ([]byte, error) {
	head, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 4, 4+len(head)+len(r.FinalLog))
	binary.LittleEndian.PutUint32(buf, uint32(len(head)))
	buf = append(buf, head...)
	return append(buf, r.FinalLog...), nil
}

// UnmarshalBinary inverts MarshalBinary.
func (r *verdictRecord) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return errors.New("verdict record: short header")
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(n) > uint64(len(data)-4) {
		return errors.New("verdict record: head overruns the entry")
	}
	if err := json.Unmarshal(data[4:4+n], r); err != nil {
		return err
	}
	r.FinalLog = string(data[4+n:])
	return nil
}

// logSep terminates each flow-log line in a verdictRecord's text form.
const logSep = "\n"

// encodeLog packs flow-log lines for a verdictRecord: the logSep-terminated
// text, or the lines themselves when one contains logSep.
func encodeLog(lines []string) (string, []string) {
	n := 0
	for _, l := range lines {
		if strings.Contains(l, logSep) {
			return "", lines
		}
		n += len(l) + len(logSep)
	}
	var b strings.Builder
	b.Grow(n)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString(logSep)
	}
	return b.String(), nil
}

// decodeLog inverts encodeLog.
func decodeLog(text string, lines []string) []string {
	if text == "" {
		return lines
	}
	return strings.Split(strings.TrimSuffix(text, logSep), logSep)
}

// loadVerdict replays a cached verdict record as an AppReport. Any miss —
// clean, corrupt (evicted and counted), or structurally unresolvable — sends
// the submission to a worker instead.
func (s *Service) loadVerdict(fp core.Fingerprint) (core.AppReport, bool) {
	if s.opts.Cache == nil {
		return core.AppReport{}, false
	}
	var rec verdictRecord
	ok, err := s.opts.Cache.Get(KindVerdict, verdictKey(fp, s.opts.Analyze), &rec)
	if err != nil {
		s.bumpStat(func(st *Stats) { st.Runner.CacheFaults++ })
	}
	if !ok || len(rec.Chain) == 0 {
		return core.AppReport{}, false
	}
	rep := core.AppReport{Degraded: rec.Degraded}
	for _, ar := range rec.Chain {
		m, okm := core.ModeFromName(ar.Mode)
		v, okv := core.VerdictFromName(ar.Verdict)
		if !okm || !okv {
			// Unknown name: the record predates a rename. Treat as a miss.
			s.opts.Cache.Evict(KindVerdict, verdictKey(fp, s.opts.Analyze))
			return core.AppReport{}, false
		}
		rep.Chain = append(rep.Chain, core.Attempt{
			Mode:   m,
			Result: core.RunResult{Verdict: v, Fault: ar.Fault.Fault()},
		})
	}
	final := &rep.Chain[len(rep.Chain)-1]
	final.Result.Thrown = rec.Thrown
	final.Result.LogLines = decodeLog(rec.FinalLog, rec.FinalLines)
	final.Result.Leaks = rec.Leaks
	final.Result.JavaInsns = rec.JavaInsns
	final.Result.NativeInsns = rec.NativeInsns
	final.Result.Surface = rec.Surface
	final.Result.JNICrossings = rec.JNICrossings
	rep.Final = *final
	return rep, true
}
