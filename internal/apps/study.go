package apps

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/service"
	"repro/internal/static"
)

// StudyOptions configures a market-study sweep over a corpus.
type StudyOptions struct {
	// Mode is the starting analysis mode (default ModeNDroid); hostile apps
	// may degrade below it.
	Mode core.Mode
	// Budget overrides core.DefaultBudget when nonzero.
	Budget uint64
	// FlowLog captures per-app flow logs.
	FlowLog bool
	// Static selects the pre-analysis level for every app (off/lint/pin).
	Static static.Level
	// Summaries selects the auto-generated native taint summary mode for
	// every app (off/static/validated). Flow logs and verdicts are
	// byte-identical across settings; the per-lib synthesis table lands in
	// each row's RunResult.Summary.
	Summaries core.SummaryMode
	// Apps is the corpus; nil means AllApps() (benign + hostile).
	Apps []*App
	// Snapshot serves attempts from a boot-once fork server (core.Runner)
	// instead of a fresh System per attempt. Verdicts and flow logs are
	// byte-identical either way; only throughput changes.
	Snapshot bool
	// Cache wires the per-worker fork servers to a persistent artifact store
	// (static results, assembled libraries, validation verdicts). Setting it
	// implies Snapshot. Artifacts never change outcomes — only cost.
	Cache *cas.Store
}

// StudyRow is one app's contained outcome.
type StudyRow struct {
	App    *App
	Report core.AppReport
}

// StudyReport aggregates a sweep: per-app rows plus the fault/timeout and
// degradation statistics the market study reports.
type StudyReport struct {
	Rows []StudyRow

	Clean    int
	Leaks    int
	Faults   int
	Timeouts int

	// Degraded counts apps that finished below their starting mode;
	// Attempts counts analysis runs including retries and degradation steps.
	Degraded int
	Attempts int

	// RunnerStats aggregates fork-server work (boots, resets, pages copied)
	// across all workers when the sweep ran with Snapshot; zero otherwise.
	RunnerStats core.RunnerStats
	// Workers is how many parallel workers served the sweep (1 = sequential).
	Workers int
}

// RunStudy analyzes every app in the corpus under per-app isolation: each
// app (and each attempt within an app) gets a fresh System, and any fault it
// raises is contained to its own report. A corpus with hostile members
// always completes.
func RunStudy(opts StudyOptions) *StudyReport {
	return RunStudyParallel(opts, 1)
}

// RunStudyParallel runs the sweep across workers, each serving its share of
// the corpus from its own fork server (per-worker System clone) when
// opts.Snapshot is set. Rows keep corpus order and every app's outcome is
// independent of worker assignment, so the report is deterministic for any
// worker count.
func RunStudyParallel(opts StudyOptions, workers int) *StudyReport {
	corpus := opts.Apps
	if corpus == nil {
		corpus = AllApps()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(corpus) && len(corpus) > 0 {
		workers = len(corpus)
	}

	rows := make([]StudyRow, len(corpus))
	stats := make([]core.RunnerStats, workers)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var runner *core.Runner
			if opts.Snapshot || opts.Cache != nil {
				// A failed warm boot falls back to fresh-System attempts; the
				// per-attempt path reports any recurring boot fault itself.
				runner, _ = core.NewCachedRunner(opts.Cache)
			}
			for i := range idx {
				rows[i] = StudyRow{App: corpus[i], Report: core.AnalyzeApp(corpus[i].Spec(), core.AnalyzeOptions{
					Mode:      opts.Mode,
					Budget:    opts.Budget,
					FlowLog:   opts.FlowLog,
					Static:    opts.Static,
					Summaries: opts.Summaries,
					Runner:    runner,
				})}
			}
			if runner != nil {
				stats[w] = runner.Stats
			}
		}(w)
	}
	for i := range corpus {
		idx <- i
	}
	close(idx)
	wg.Wait()

	rep := &StudyReport{Rows: rows, Workers: workers}
	for _, s := range stats {
		rep.RunnerStats.Boots += s.Boots
		rep.RunnerStats.Resets += s.Resets
		rep.RunnerStats.GuestPagesReset += s.GuestPagesReset
		rep.RunnerStats.TaintPagesReset += s.TaintPagesReset
		rep.RunnerStats.StaticRuns += s.StaticRuns
		rep.RunnerStats.StaticReuses += s.StaticReuses
		rep.RunnerStats.StaticDiskHits += s.StaticDiskHits
		rep.RunnerStats.DexValidations += s.DexValidations
		rep.RunnerStats.DexCheckHits += s.DexCheckHits
		rep.RunnerStats.AsmCacheHits += s.AsmCacheHits
		rep.RunnerStats.AsmAssembles += s.AsmAssembles
		rep.RunnerStats.CacheFaults += s.CacheFaults
		rep.RunnerStats.JNICrossings += s.JNICrossings
		rep.RunnerStats.SummarySynths += s.SummarySynths
		rep.RunnerStats.SummaryReuses += s.SummaryReuses
		rep.RunnerStats.SummaryDiskHits += s.SummaryDiskHits
	}
	rep.tally()
	return rep
}

// tally derives the aggregate verdict/degradation counters from Rows.
func (rep *StudyReport) tally() {
	for _, row := range rep.Rows {
		r := row.Report
		rep.Attempts += len(r.Chain)
		if r.Degraded {
			rep.Degraded++
		}
		switch r.Verdict() {
		case core.VerdictClean:
			rep.Clean++
		case core.VerdictLeak:
			rep.Leaks++
		case core.VerdictFault:
			rep.Faults++
		case core.VerdictTimeout:
			rep.Timeouts++
		}
	}
}

// RunStudyService runs the sweep through an analysis service: every app is
// Submitted, served by whichever worker is free, and collected back in
// corpus order. With opts.Cache set, artifacts and verdict records persist in
// the store — a second sweep over the same corpus short-circuits entirely.
// Verdicts and flow logs are byte-identical to RunStudy/RunStudyParallel in
// every cache mode (the service parity suite holds this).
func RunStudyService(opts StudyOptions, workers int) (*StudyReport, service.Stats, error) {
	corpus := opts.Apps
	if corpus == nil {
		corpus = AllApps()
	}
	if workers < 1 {
		workers = 1
	}
	svc, err := service.New(service.Options{
		Workers: workers,
		Cache:   opts.Cache,
		Analyze: core.AnalyzeOptions{
			Mode:      opts.Mode,
			Budget:    opts.Budget,
			FlowLog:   opts.FlowLog,
			Static:    opts.Static,
			Summaries: opts.Summaries,
		},
	})
	if err != nil {
		return nil, service.Stats{}, err
	}
	chans := make([]<-chan service.Result, len(corpus))
	for i, app := range corpus {
		chans[i] = svc.Submit(app.Spec())
	}
	rep := &StudyReport{Rows: make([]StudyRow, len(corpus)), Workers: workers}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			svc.Close()
			return nil, svc.Stats(), fmt.Errorf("apps: service submission %s: %w", corpus[i].Name, res.Err)
		}
		rep.Rows[i] = StudyRow{App: corpus[i], Report: res.Report}
	}
	svc.Close()
	st := svc.Stats()
	rep.RunnerStats = st.Runner
	rep.tally()
	return rep, st, nil
}

// SharedLibVariant derives an app shipping byte-identical native libraries
// under different dex content: Install additionally registers a padding
// class, so the app/dex/static digests all move while every LibPrint stays
// the same. A warm-store run of the variant must therefore reuse all
// assembled images (zero assembler runs) yet recompute everything dex- and
// app-scoped — the shared-library leg of the cache ablation.
func SharedLibVariant(app *App) *App {
	v := *app
	v.Name = app.Name + "+sharedlib"
	inner := app.install
	v.install = func(sys *core.System) error {
		if err := inner(sys); err != nil {
			return err
		}
		cb := dex.NewClass("Lcom/ndroid/variant/Pad;")
		cb.Method("pad", "I", dex.AccStatic, 1).
			Const(0, 9).
			Return(0).
			Done()
		sys.VM.RegisterClass(cb.Build())
		return nil
	}
	return &v
}

// String renders the study as the per-app verdict table plus totals.
func (r *StudyReport) String() string {
	var b strings.Builder
	for _, row := range r.Rows {
		res := row.Report.Final.Result
		fmt.Fprintf(&b, "%-14s %-8s chain=[%s]", row.App.Name, r.verdictCell(row), row.Report.ChainString())
		if res.Fault != nil {
			fmt.Fprintf(&b, " fault=%v", res.Fault)
		}
		fmt.Fprintf(&b, " java=%d native=%d log=%d\n", res.JavaInsns, res.NativeInsns, len(res.LogLines))
	}
	fmt.Fprintf(&b, "apps=%d clean=%d leak=%d fault=%d timeout=%d degraded=%d attempts=%d\n",
		len(r.Rows), r.Clean, r.Leaks, r.Faults, r.Timeouts, r.Degraded, r.Attempts)
	return b.String()
}

func (r *StudyReport) verdictCell(row StudyRow) string {
	return row.Report.Verdict().String()
}
