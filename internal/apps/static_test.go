package apps_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/arm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/static"
)

var allModes = []core.Mode{
	core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope,
}

// TestStaticCrossValidation asserts the pre-analysis is a sound
// over-approximation of the dynamic runs: every flow-log event of every
// corpus app, in every mode, must lie inside the static reach sets.
func TestStaticCrossValidation(t *testing.T) {
	for _, app := range apps.AllApps() {
		for _, mode := range allModes {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				rep := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true, Static: static.PinLevel,
				})
				for _, att := range rep.Chain {
					if len(att.Result.StaticViolations) != 0 {
						t.Fatalf("mode %s attempt: cross-validation violations:\n%s",
							att.Mode, strings.Join(att.Result.StaticViolations, "\n"))
					}
				}
			})
		}
	}
}

// TestStaticPinsEveryBenignApp asserts the precision floor: on every benign
// app the pre-analysis proves at least one method or native page pinnable.
func TestStaticPinsEveryBenignApp(t *testing.T) {
	for _, app := range apps.Registry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			sys, err := core.NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Install(sys); err != nil {
				t.Fatal(err)
			}
			r := static.Analyze(sys.VM, app.EntryClass, app.EntryMethod)
			if r.PinnedMethods == 0 && r.PinnedPages == 0 {
				t.Fatalf("nothing pinned: %s", r.Summary())
			}
			// The checksum helper is pure and called argument-free: it must
			// be provably pinnable in every benign app.
			if r.PinnedMethods < 1 {
				t.Fatalf("checksum helper not pinned: %s", r.Summary())
			}
		})
	}
}

// TestStaticPinnedVariantExecutes proves pins actually change dispatch: a
// benign-app NDroid run under the pin level must retire at least one pinned
// clean Java frame, and on a fully taint-free app at least one pinned bare
// ARM block.
func TestStaticPinnedVariantExecutes(t *testing.T) {
	run := func(name string, level static.Level) (uint64, uint64) {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		sys, err := core.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Install(sys); err != nil {
			t.Fatal(err)
		}
		a := core.NewAnalyzer(sys, core.ModeNDroid)
		a.Budget = testBudget
		if level != static.Off {
			r := static.Analyze(sys.VM, app.EntryClass, app.EntryMethod)
			r.Apply(sys.VM)
		}
		res := a.Run(app.EntryClass, app.EntryMethod, nil, nil)
		if res.Verdict != core.VerdictClean && res.Verdict != core.VerdictLeak {
			t.Fatalf("%s run failed: %v (%v)", name, res.Verdict, res.Fault)
		}
		return sys.VM.JavaPinnedFrames, sys.CPU.GatePinnedBlocks
	}

	// case1 reaches sources, so only the checksum helper pins; its frame must
	// execute the pinned clean variant.
	frames, _ := run("case1", static.PinLevel)
	if frames == 0 {
		t.Error("case1: no pinned clean frames executed under pin level")
	}
	frames, _ = run("case1", static.Off)
	if frames != 0 {
		t.Error("case1: pinned frames executed with the pre-analysis off")
	}

	// benign has no reachable source: the whole app is taint-free, so native
	// pages pin and bare blocks must run without gate probes.
	_, blocks := run("benign", static.PinLevel)
	if blocks == 0 {
		t.Error("benign: no pinned bare blocks executed under pin level")
	}
}

// TestStaticPinReseedOnDegradation is the regression test for pin
// invalidation under the fault-containment ladder: pins are keyed against
// one attempt's System (method pointers, CPU page sets), so a degradation
// retry's fresh System must be re-analyzed and re-seeded, not inherit stale
// pins. An injected arm-layer fault forces ndroid -> taintdroid; both
// attempts must carry an equally sized, freshly applied pin set.
func TestStaticPinReseedOnDegradation(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	if err := fault.Arm(arm.SiteDispatch, fault.UnmappedAccess); err != nil {
		t.Fatal(err)
	}
	rep := core.AnalyzeApp(apps.Case1App().Spec(), core.AnalyzeOptions{
		Budget: testBudget, FlowLog: true, Static: static.PinLevel,
	})
	if !rep.Degraded || len(rep.Chain) < 2 {
		t.Fatalf("expected a degradation chain, got %s", rep.ChainString())
	}
	for i, att := range rep.Chain {
		if att.Result.Static == nil {
			t.Fatalf("attempt %d (%s) has no static result: pins not re-seeded", i, att.Mode)
		}
		if att.Result.Static.PinnedMethods == 0 {
			t.Fatalf("attempt %d (%s) pinned nothing: %s", i, att.Mode, att.Result.Static.Summary())
		}
		if want := rep.Chain[0].Result.Static.PinnedMethods; att.Result.Static.PinnedMethods != want {
			t.Fatalf("attempt %d pin count %d != first attempt %d (analysis not deterministic per System)",
				i, att.Result.Static.PinnedMethods, want)
		}
	}
}

// TestStaticLintCorpus locks down the lint verdict over the corpus: the
// deliberate Get-without-Release in case1's scramble is flagged, and the
// properly paired fixtures stay clean.
func TestStaticLintCorpus(t *testing.T) {
	for _, app := range apps.AllApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			sys, err := core.NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Install(sys); err != nil {
				t.Fatal(err)
			}
			r := static.Analyze(sys.VM, app.EntryClass, app.EntryMethod)
			for _, f := range r.Findings {
				if f.Layer != "static" || f.Kind != fault.JNIMisuse {
					t.Fatalf("finding with wrong typing: %+v", f)
				}
			}
			if app.Name == "case1" {
				// scramble: GetStringUTFChars with no release on any path.
				found := false
				for _, f := range r.Findings {
					if strings.Contains(f.Detail, "unreleased") {
						found = true
					}
				}
				if !found {
					t.Fatalf("case1's unreleased handle not flagged; findings: %v", r.Findings)
				}
			}
		})
	}
}
