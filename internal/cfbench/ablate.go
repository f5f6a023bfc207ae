package cfbench

// Ablation harness. The claim under test is the paper's: NDroid's taint
// results do not depend on how the emulator runs. Each ablation sweeps the
// evaluation corpus under an ordered list of arms — fresh System or fork
// server, fused or unfused crossings, cached or recomputed artifacts,
// observed or unobserved JNI surface, traced or summarized natives — and
// holds every arm's verdicts and flow logs byte-identical to the first
// (baseline) arm. Anything an ablation claims beyond parity is a small gate
// on its result. cmd/cfbench exits nonzero on any parity or gate failure
// (the CI bench-smoke gate).

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/static"
)

// WarmSpeedupFloor is the minimum warm/cold apps-per-second ratio the cache
// ablation must clear: a verdict replay runs zero guest instructions, so
// anything below this means the cache is not actually short-circuiting.
const WarmSpeedupFloor = 3.0

// warmPasses is how many times the warm cache arm sweeps the corpus. A warm
// replay is pure fixed cost — fingerprint plus one record read per app — so
// its slices are single-digit milliseconds and one scheduler hiccup skews
// the warm/cold ratio; keeping the fastest pass matches the Fig. 10 rows.
const warmPasses = 3

// summaryExhibits are the corpus apps whose hot native function is
// summarizable; they carry the >= 5x traced-instruction reduction claim.
var summaryExhibits = []string{"summix", "sumfold", "sumfloat"}

// summaryDivergent is the hostile app whose static-tier summary is wrong by
// construction (input-value-dependent taint transfer).
const summaryDivergent = "hostile-sumdodge"

// Arm is one way of running a corpus cell.
type Arm struct {
	Name string
	Run  func(app *apps.App, mode core.Mode) core.AppReport
	// Passes is how many times the arm sweeps the corpus (0 means once).
	// Every pass is held to parity; the timing keeps the fastest pass.
	Passes int
	// Start, when set, runs untimed before the arm's first cell: it acquires
	// what Run needs.
	Start func() error
	// Finish, when set, runs after the arm's last pass: it releases what the
	// arm holds and returns its arm-level counters (runner, service or store
	// traffic) for ArmResult.Counters.
	Finish func() (map[string]int, error)
}

// Ablation is a name plus an ordered list of arms; Arms[0] is the baseline.
type Ablation struct {
	Name string
	Arms []Arm

	modes []core.Mode // nil: all four analysis modes
	// diverges marks the cells an arm must NOT match the baseline on: an
	// exhibit built to defeat that arm. Parity fails if such a cell matches.
	diverges func(arm, app string, mode core.Mode) bool
	// check is the gate beyond parity; it may append Notes.
	check func(*AblationResult) error
}

// AblationResult is one ablation's outcome.
type AblationResult struct {
	Name  string       `json:"name"`
	Arms  []*ArmResult `json:"arms"`
	Cells []Cell       `json:"cells"`
	Notes []string     `json:"notes,omitempty"`

	// ParityOK records the soundness check: every arm's verdict and flow log
	// equal the baseline's on every cell (and differ where diverges says so).
	ParityOK     bool   `json:"parity_ok"`
	ParityDetail string `json:"parity_detail,omitempty"`
	GateOK       bool   `json:"gate_ok"`
	GateDetail   string `json:"gate_detail,omitempty"`
}

// ArmResult is one arm's timing. The headline apps/sec covers the responsive
// corpus; budget-bound cells (verdict timeout) burn the full watchdog budget
// whatever the arm does, so they are tallied apart.
type ArmResult struct {
	Name       string  `json:"name"`
	Apps       int     `json:"apps"`
	Seconds    float64 `json:"seconds"`
	AppsPerSec float64 `json:"apps_per_sec"`

	BudgetBoundApps    int     `json:"budget_bound_apps,omitempty"`
	BudgetBoundSeconds float64 `json:"budget_bound_seconds,omitempty"`

	Counters map[string]int `json:"counters,omitempty"`
}

// Cell is one (app, mode) cell; Arms holds each arm's first-pass outcome, in
// arm order.
type Cell struct {
	App  string      `json:"app"`
	Mode string      `json:"mode"`
	Arms []CellStats `json:"arms"`
}

// CellStats is the verdict plus the RunResult counters of one arm on one
// cell.
type CellStats struct {
	Verdict           string `json:"verdict"`
	Crossings         uint64 `json:"crossings,omitempty"`
	FusedCalls        uint64 `json:"fused_calls,omitempty"`
	Deopts            uint64 `json:"deopts,omitempty"`
	Traced            uint64 `json:"traced,omitempty"`
	SummariesApplied  uint64 `json:"summaries_applied,omitempty"`
	SummariesRejected int    `json:"summaries_rejected,omitempty"`
	SurfaceEvents     int    `json:"surface_events,omitempty"`
	SurfaceDropped    uint64 `json:"surface_dropped,omitempty"`
	SurfaceTruncated  bool   `json:"surface_truncated,omitempty"`
}

func statsOf(rep core.AppReport) CellStats {
	r := rep.Final.Result
	s := CellStats{
		Verdict:           r.Verdict.String(),
		Crossings:         r.JNICrossings,
		FusedCalls:        r.FusedCalls,
		Deopts:            r.FuseDeopts,
		Traced:            r.TracedInsns,
		SummariesApplied:  r.SummaryApplied,
		SummariesRejected: len(r.SummaryRejections),
	}
	if m := r.Surface; m != nil {
		s.SurfaceEvents, s.SurfaceDropped, s.SurfaceTruncated = m.Events, m.Dropped, m.Truncated
	}
	return s
}

func allModes() []core.Mode {
	return []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}
}

// Ablations builds the five ablations in run order. budget 0 uses
// core.DefaultBudget; repeats is the snapshot ablation's pass count; the
// cache ablation keeps its artifact store in storeDir. Each ablation runs
// once: its arms hold their runner, service and store state.
func Ablations(budget uint64, repeats int, storeDir string) ([]Ablation, error) {
	runner, err := core.NewRunner()
	if err != nil {
		return nil, fmt.Errorf("cfbench: boot fork server: %w", err)
	}
	store, err := cas.Open(storeDir)
	if err != nil {
		return nil, fmt.Errorf("cfbench: open ablation store: %w", err)
	}
	fresh := analyzeArm("fresh", budget, core.AnalyzeOptions{})
	snap := analyzeArm("snapshot", budget, core.AnalyzeOptions{Runner: runner})
	fresh.Passes, snap.Passes = repeats, repeats
	snap.Finish = func() (map[string]int, error) {
		st := runner.Stats
		return map[string]int{"boots": st.Boots, "resets": st.Resets,
			"guest_pages_reset": st.GuestPagesReset, "taint_pages_reset": st.TaintPagesReset}, nil
	}
	return []Ablation{
		{Name: "snapshot", Arms: []Arm{fresh, snap}, check: checkSnapshot},
		{Name: "fuse", Arms: []Arm{
			analyzeArm("unfused", budget, core.AnalyzeOptions{Fuse: core.FuseOff}),
			analyzeArm("fused", budget, core.AnalyzeOptions{Fuse: core.FuseOn}),
		}},
		{Name: "cache", modes: []core.Mode{core.ModeNDroid}, check: checkCache, Arms: []Arm{
			serviceArm("nocache", budget, nil, 1, nil),
			serviceArm("cold", budget, store, 1, nil),
			serviceArm("warm", budget, store, warmPasses, nil),
			serviceArm("sharedlib", budget, store, 1, apps.SharedLibVariant),
		}},
		{Name: "surface", check: floodLeg(budget), Arms: []Arm{
			analyzeArm("off", budget, core.AnalyzeOptions{Surface: core.SurfaceOff}),
			analyzeArm("on", budget, core.AnalyzeOptions{Surface: core.SurfaceOn}),
		}},
		{Name: "summaries", check: checkSummaries, Arms: []Arm{
			analyzeArm("off", budget, core.AnalyzeOptions{Summaries: core.SummaryOff}),
			analyzeArm("static", budget, core.AnalyzeOptions{Summaries: core.SummaryStatic}),
			analyzeArm("validated", budget, core.AnalyzeOptions{Summaries: core.SummaryValidated}),
		}, diverges: func(arm, app string, mode core.Mode) bool {
			return arm == "static" && app == summaryDivergent && mode == core.ModeNDroid
		}},
	}, nil
}

// analyzeArm runs each cell through core.AnalyzeApp with opts plus the
// cell's mode, the budget, and the flow log on.
func analyzeArm(name string, budget uint64, opts core.AnalyzeOptions) Arm {
	return Arm{Name: name, Run: func(app *apps.App, mode core.Mode) core.AppReport {
		o := opts
		o.Mode, o.Budget, o.FlowLog = mode, budget, true
		return core.AnalyzeApp(app.Spec(), o)
	}}
}

// serviceArm submits each cell to one analysis service over store (nil: no
// store), booted when the arm starts so its counters are the arm's own. The
// cache ablation runs NDroid only. Static pins are on: the pre-analysis is
// the heaviest cacheable artifact and speed-only. variant, when set,
// replaces each app before submission; its cells still compare against the
// base app.
func serviceArm(name string, budget uint64, store *cas.Store, passes int, variant func(*apps.App) *apps.App) Arm {
	var (
		svc *service.Service
		pre cas.Stats
		err error // first failed submission
	)
	start := func() (e error) {
		if store != nil {
			pre = store.Stats()
		}
		svc, e = service.New(service.Options{Workers: 1, Cache: store, Analyze: core.AnalyzeOptions{
			Mode: core.ModeNDroid, Budget: budget, FlowLog: true, Static: static.PinLevel}})
		return e
	}
	run := func(app *apps.App, _ core.Mode) core.AppReport {
		if variant != nil {
			app = variant(app)
		}
		res := <-svc.Submit(app.Spec())
		if res.Err != nil && err == nil {
			err = fmt.Errorf("%s: %w", app.Name, res.Err)
		}
		return res.Report
	}
	finish := func() (map[string]int, error) {
		svc.Close()
		if err != nil {
			return nil, err
		}
		st := svc.Stats()
		c := map[string]int{
			"computed": st.Computed, "verdict_hits": st.VerdictHits, "deduped": st.Deduped,
			"static_runs": st.Runner.StaticRuns, "static_disk_hits": st.Runner.StaticDiskHits,
			"dex_validations": st.Runner.DexValidations, "dex_check_hits": st.Runner.DexCheckHits,
			"asm_assembles": st.Runner.AsmAssembles, "asm_cache_hits": st.Runner.AsmCacheHits,
			"cache_faults": st.Runner.CacheFaults,
		}
		if store != nil {
			post := store.Stats()
			c["store_hits"] = int(post.Hits - pre.Hits)
			c["store_misses"] = int(post.Misses - pre.Misses)
			c["store_puts"] = int(post.Puts - pre.Puts)
		}
		return c, nil
	}
	return Arm{Name: name, Run: run, Passes: passes, Start: start, Finish: finish}
}

// outcome is the parity unit of one cell.
type outcome struct {
	verdict core.Verdict
	log     []string
}

// Run sweeps the arms in order over apps x modes and applies the gate. An
// error means an arm could not run; parity and gate failures are reported
// in the result.
func (a Ablation) Run() (*AblationResult, error) {
	modes := a.modes
	if modes == nil {
		modes = allModes()
	}
	corpus := apps.AllApps()
	res := &AblationResult{Name: a.Name, ParityOK: true, GateOK: true}
	for _, mode := range modes {
		for _, app := range corpus {
			res.Cells = append(res.Cells, Cell{App: app.Name, Mode: mode.String()})
		}
	}
	base := make([]outcome, len(res.Cells))
	for ai, arm := range a.Arms {
		if arm.Start != nil {
			if err := arm.Start(); err != nil {
				return nil, fmt.Errorf("cfbench: %s ablation, %s arm: %w", a.Name, arm.Name, err)
			}
		}
		var best *ArmResult
		for pass := 0; pass < max(arm.Passes, 1); pass++ {
			t := &ArmResult{Name: arm.Name}
			ci := 0
			for _, mode := range modes {
				for _, app := range corpus {
					start := time.Now()
					rep := arm.Run(app, mode)
					if secs := time.Since(start).Seconds(); rep.Verdict() == core.VerdictTimeout {
						t.BudgetBoundApps++
						t.BudgetBoundSeconds += secs
					} else {
						t.Apps++
						t.Seconds += secs
					}
					got := outcome{rep.Verdict(), rep.Final.Result.LogLines}
					if pass == 0 {
						res.Cells[ci].Arms = append(res.Cells[ci].Arms, statsOf(rep))
					}
					if ai == 0 && pass == 0 {
						base[ci] = got
					} else {
						mustDiffer := a.diverges != nil && a.diverges(arm.Name, app.Name, mode)
						res.compare(arm.Name, res.Cells[ci], base[ci], got, mustDiffer)
					}
					ci++
				}
			}
			if t.Seconds > 0 {
				t.AppsPerSec = float64(t.Apps) / t.Seconds
			}
			if best == nil || t.AppsPerSec > best.AppsPerSec {
				best = t
			}
		}
		if arm.Finish != nil {
			c, err := arm.Finish()
			if err != nil {
				return nil, fmt.Errorf("cfbench: %s ablation, %s arm: %w", a.Name, arm.Name, err)
			}
			best.Counters = c
		}
		res.Arms = append(res.Arms, best)
	}
	if a.check != nil {
		if err := a.check(res); err != nil {
			res.GateOK, res.GateDetail = false, err.Error()
		}
	}
	return res, nil
}

// compare holds one arm outcome to the baseline's; the first mismatch is
// the one reported.
func (r *AblationResult) compare(arm string, c Cell, want, got outcome, mustDiffer bool) {
	same := got.verdict == want.verdict && slices.Equal(got.log, want.log)
	if !r.ParityOK || same != mustDiffer {
		return
	}
	r.ParityOK = false
	where := fmt.Sprintf("%s arm, %s/%s", arm, c.Mode, c.App)
	switch {
	case mustDiffer:
		r.ParityDetail = where + ": matches the baseline, but this exhibit must diverge"
	case got.verdict != want.verdict:
		r.ParityDetail = fmt.Sprintf("%s: verdict %v, baseline %v", where, got.verdict, want.verdict)
	default:
		r.ParityDetail = where + ": flow log diverged from the baseline"
	}
}

// arm returns the named arm's result (empty when the ablation has no such
// arm, which fails any gate reading it).
func (r *AblationResult) arm(name string) *ArmResult {
	for _, a := range r.Arms {
		if a.Name == name {
			return a
		}
	}
	return &ArmResult{Name: name}
}

// stats returns one arm's counters on the (app, mode) cell.
func (r *AblationResult) stats(app string, mode core.Mode, arm string) (CellStats, bool) {
	for i, a := range r.Arms {
		if a.Name != arm {
			continue
		}
		for _, c := range r.Cells {
			if c.App == app && c.Mode == mode.String() {
				return c.Arms[i], true
			}
		}
	}
	return CellStats{}, false
}

// checkSnapshot: the fork server boots once and serves every later attempt
// from a copy-on-write reset.
func checkSnapshot(r *AblationResult) error {
	c := r.arm("snapshot").Counters
	if c["boots"] != 1 || c["resets"] == 0 || c["guest_pages_reset"] == 0 {
		return fmt.Errorf("snapshot arm: %d boots, %d resets, %d guest pages reset; want 1 boot and resets that copy pages",
			c["boots"], c["resets"], c["guest_pages_reset"])
	}
	return nil
}

// checkCache: the cold arm fills the store, the warm arm replays every
// verdict and clears WarmSpeedupFloor over cold, and the shared-library arm
// takes every assembled image from the store.
func checkCache(r *AblationResult) error {
	cold, warm, shared := r.arm("cold"), r.arm("warm"), r.arm("sharedlib")
	var errs []error
	if cold.Counters["computed"] == 0 || cold.Counters["store_puts"] == 0 {
		errs = append(errs, fmt.Errorf("cold arm computed %d apps with %d puts; the store never filled",
			cold.Counters["computed"], cold.Counters["store_puts"]))
	}
	if warm.Counters["computed"] != 0 || warm.Counters["verdict_hits"] == 0 {
		errs = append(errs, fmt.Errorf("warm arm computed %d apps with %d verdict hits; every verdict should replay",
			warm.Counters["computed"], warm.Counters["verdict_hits"]))
	}
	if shared.Counters["asm_assembles"] != 0 || shared.Counters["asm_cache_hits"] == 0 {
		errs = append(errs, fmt.Errorf("sharedlib arm ran the assembler %d times with %d image hits; shared images must replay",
			shared.Counters["asm_assembles"], shared.Counters["asm_cache_hits"]))
	}
	speedup := 0.0
	if cold.AppsPerSec > 0 {
		speedup = warm.AppsPerSec / cold.AppsPerSec
	}
	r.Notes = append(r.Notes, fmt.Sprintf("warm speedup: %.2fx apps-analyzed/sec over cold (floor %.1fx)", speedup, WarmSpeedupFloor))
	if speedup < WarmSpeedupFloor {
		errs = append(errs, fmt.Errorf("warm speedup %.2fx, floor %.1fx", speedup, WarmSpeedupFloor))
	}
	return errors.Join(errs...)
}

// checkSummaries: validation rejects the hostile exhibit's wrong summary,
// and every summarizable exhibit traces >= 5x fewer native instructions under
// validated summaries, with at least one crossing served by a summary. (The
// static arm's required divergence on the hostile exhibit is a parity rule.)
func checkSummaries(r *AblationResult) error {
	var errs []error
	s, _ := r.stats(summaryDivergent, core.ModeNDroid, "validated")
	r.Notes = append(r.Notes, fmt.Sprintf("%s (ndroid): static arm must diverge; validated arm rejected %d summaries",
		summaryDivergent, s.SummariesRejected))
	if s.SummariesRejected == 0 {
		errs = append(errs, fmt.Errorf("%s: validation rejected nothing", summaryDivergent))
	}
	for _, ex := range summaryExhibits {
		off, _ := r.stats(ex, core.ModeNDroid, "off")
		val, ok := r.stats(ex, core.ModeNDroid, "validated")
		ratio := 0.0
		if val.Traced > 0 {
			ratio = float64(off.Traced) / float64(val.Traced)
		}
		r.Notes = append(r.Notes, fmt.Sprintf("reduction (%s): %d traced full vs %d under validated summaries (%.1fx)",
			ex, off.Traced, val.Traced, ratio))
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("%s: exhibit missing from the corpus", ex))
		case val.Traced == 0 || off.Traced < 5*val.Traced:
			errs = append(errs, fmt.Errorf("%s: traced %d full vs %d summarized, below the 5x bar", ex, off.Traced, val.Traced))
		case val.SummariesApplied == 0:
			errs = append(errs, fmt.Errorf("%s: no crossing was served by a summary", ex))
		}
	}
	return errors.Join(errs...)
}

// floodLeg runs the RASP hostile app under NDroid with the surface observer
// throttled, unthrottled, and detached. Attempts are events the observer
// tried to record (recorded + dropped) — the cost a per-call event stream
// would pay; throttling must cut them.
func floodLeg(budget uint64) func(*AblationResult) error {
	return func(r *AblationResult) error {
		rasp, ok := apps.ByName("hostile-rasp")
		if !ok {
			return errors.New("flood leg: hostile-rasp missing from the corpus")
		}
		var calls uint64
		var attempts [2]uint64
		var secs [3]float64
		for i, sm := range []core.SurfaceMode{core.SurfaceOn, core.SurfaceUnthrottled, core.SurfaceOff} {
			start := time.Now()
			rep := core.AnalyzeApp(rasp.Spec(), core.AnalyzeOptions{
				Mode: core.ModeNDroid, Budget: budget, FlowLog: true, Surface: sm})
			secs[i] = time.Since(start).Seconds()
			if m := rep.Final.Result.Surface; m != nil && i < 2 {
				calls, attempts[i] = m.Calls, uint64(m.Events)+m.Dropped
			}
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"flood (%s): %d calls -> %d attempts throttled vs %d unthrottled; wall clock %.3fs / %.3fs / %.3fs (throttled/unthrottled/off)",
			rasp.Name, calls, attempts[0], attempts[1], secs[0], secs[1], secs[2]))
		if attempts[0] == 0 || attempts[0] >= attempts[1] {
			return fmt.Errorf("flood leg: %d attempts throttled vs %d unthrottled; throttling must cut them", attempts[0], attempts[1])
		}
		return nil
	}
}

// String renders the ablation: one row per arm (timing, then the cell
// counters summed over the corpus), arm-level counters, notes, and the
// parity and gate verdicts.
func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %5s %8s %9s %7s %5s %9s %8s %6s %9s %7s %4s %6s %7s %5s\n",
		"arm", "apps", "seconds", "apps/sec", "x base", "bound",
		"crossings", "fused", "deopts", "traced", "applied", "rej", "events", "dropped", "trunc")
	for i, a := range r.Arms {
		var t CellStats
		trunc := 0
		for _, c := range r.Cells {
			s := c.Arms[i]
			t.Crossings += s.Crossings
			t.FusedCalls += s.FusedCalls
			t.Deopts += s.Deopts
			t.Traced += s.Traced
			t.SummariesApplied += s.SummariesApplied
			t.SummariesRejected += s.SummariesRejected
			t.SurfaceEvents += s.SurfaceEvents
			t.SurfaceDropped += s.SurfaceDropped
			if s.SurfaceTruncated {
				trunc++
			}
		}
		x := 0.0
		if base := r.Arms[0].AppsPerSec; base > 0 {
			x = a.AppsPerSec / base
		}
		fmt.Fprintf(&b, "%-10s %5d %8.3f %9.1f %6.2fx %5d %9d %8d %6d %9d %7d %4d %6d %7d %5d\n",
			a.Name, a.Apps, a.Seconds, a.AppsPerSec, x, a.BudgetBoundApps,
			t.Crossings, t.FusedCalls, t.Deopts, t.Traced, t.SummariesApplied, t.SummariesRejected,
			t.SurfaceEvents, t.SurfaceDropped, trunc)
	}
	for _, a := range r.Arms {
		if len(a.Counters) == 0 {
			continue
		}
		keys := make([]string, 0, len(a.Counters))
		for k := range a.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s:", a.Name)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, a.Counters[k])
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		b.WriteString(n + "\n")
	}
	if r.ParityOK {
		b.WriteString("parity: OK (verdicts and flow logs byte-identical to the baseline arm)\n")
	} else {
		b.WriteString("parity: MISMATCH — " + r.ParityDetail + "\n")
	}
	if !r.GateOK {
		b.WriteString("gate: FAILED — " + r.GateDetail + "\n")
	}
	return b.String()
}
