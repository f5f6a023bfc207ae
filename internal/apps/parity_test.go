package apps_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/static"
)

// appOutcome is the parity unit: the final verdict plus the final attempt's
// flow log, byte for byte.
type appOutcome struct {
	verdict core.Verdict
	log     string
}

func outcomeOf(r core.AppReport) appOutcome {
	return appOutcome{
		verdict: r.Verdict(),
		log:     strings.Join(r.Final.Result.LogLines, "\n"),
	}
}

// parityRow is one analysis configuration that must not change what the
// taint engine observes: every corpus app under every mode produces the
// baseline's (default options) verdict and flow log, except on the cells
// diverges names, where the row must differ.
type parityRow struct {
	name     string
	opts     core.AnalyzeOptions
	diverges func(app *apps.App, mode core.Mode) bool
}

var (
	// fuseOff: every crossing on the unfused bridge (the default fuses hot
	// chains).
	fuseOff = parityRow{name: "fuse-off", opts: core.AnalyzeOptions{Fuse: core.FuseOff}}
	// staticPin: pins may only change which translation variant executes.
	staticPin = parityRow{name: "static-pin", opts: core.AnalyzeOptions{Static: static.PinLevel}}
	// summariesStatic trusts unvalidated summaries. hostile-sumdodge's native
	// taint transfer depends on its argument's value, so the static summary
	// over-taints a tainted-zero call and fires a spurious early leak; the
	// divergence must occur, or the hostile app is not doing its job.
	// Summaries only activate under NDroid.
	summariesStatic = parityRow{name: "summaries-static", opts: core.AnalyzeOptions{Summaries: core.SummaryStatic},
		diverges: func(app *apps.App, mode core.Mode) bool {
			return app.Name == "hostile-sumdodge" && mode == core.ModeNDroid
		}}
	summariesValidated = parityRow{name: "summaries-validated", opts: core.AnalyzeOptions{Summaries: core.SummaryValidated}}
)

var (
	baselineMu sync.Mutex
	baselines  = map[string]appOutcome{}
)

// baselineOf runs app under mode with default options once per test binary;
// every parity row compares against the same run.
func baselineOf(app *apps.App, mode core.Mode) appOutcome {
	baselineMu.Lock()
	defer baselineMu.Unlock()
	key := app.Name + "/" + mode.String()
	out, ok := baselines[key]
	if !ok {
		out = outcomeOf(core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
			Mode: mode, Budget: testBudget, FlowLog: true,
		}))
		baselines[key] = out
	}
	return out
}

// checkParity runs every corpus app (benign + hostile) under every mode with
// each row's options and holds the outcome to the baseline.
func checkParity(t *testing.T, rows ...parityRow) {
	for _, app := range apps.AllApps() {
		for _, mode := range allModes {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				want := baselineOf(app, mode)
				for _, row := range rows {
					opts := row.opts
					opts.Mode, opts.Budget, opts.FlowLog = mode, testBudget, true
					got := outcomeOf(core.AnalyzeApp(app.Spec(), opts))
					if row.diverges != nil && row.diverges(app, mode) {
						if got.log == want.log {
							t.Errorf("%s: %s failed to diverge (logs identical)", row.name, app.Name)
						}
						continue
					}
					if got.verdict != want.verdict {
						t.Errorf("%s: verdict %v, baseline %v", row.name, got.verdict, want.verdict)
					} else if got.log != want.log {
						t.Errorf("%s: flow log diverged:\n--- baseline ---\n%s\n--- %s ---\n%s",
							row.name, want.log, row.name, got.log)
					}
				}
			})
		}
	}
}

// TestFusionParityAllAppsAllModes is the fusion soundness contract, including
// the hostile set and the RegisterNatives re-binder.
func TestFusionParityAllAppsAllModes(t *testing.T) { checkParity(t, fuseOff) }

// TestStaticPinFlowLogParity is the headline soundness check for the pin
// level.
func TestStaticPinFlowLogParity(t *testing.T) { checkParity(t, staticPin) }

// TestSummaryParityAllAppsAllModes is the summary soundness contract.
func TestSummaryParityAllAppsAllModes(t *testing.T) {
	checkParity(t, summariesStatic, summariesValidated)
}
