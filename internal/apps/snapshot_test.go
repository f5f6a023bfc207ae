package apps_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/static"
)

// TestSnapshotParity is the fork-server soundness gate (same discipline as
// the PR 2 gate and PR 5 pin parity suites): for every app in the registry —
// benign and hostile — and every analysis mode, an attempt served from a
// snapshot-restored System must produce the same verdict, the same
// degradation chain, and a byte-identical flow log as a fresh-NewSystem run.
// Each mode reuses one Runner across the whole corpus, so later apps run on a
// System that has been dirtied and restored many times.
func TestSnapshotParity(t *testing.T) {
	modes := []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			runner, err := core.NewRunner()
			if err != nil {
				t.Fatal(err)
			}
			for _, app := range apps.AllApps() {
				fresh := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true})
				snap := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true, Runner: runner})

				if fresh.Verdict() != snap.Verdict() {
					t.Errorf("%s: verdict fresh=%v snapshot=%v", app.Name, fresh.Verdict(), snap.Verdict())
				}
				if fresh.ChainString() != snap.ChainString() {
					t.Errorf("%s: chain fresh=[%s] snapshot=[%s]", app.Name, fresh.ChainString(), snap.ChainString())
				}
				fl, sl := outcomeOf(fresh).log, outcomeOf(snap).log
				if fl != sl {
					line := firstDiffLine(fl, sl)
					t.Errorf("%s: flow log diverged at %q", app.Name, line)
				}
			}
			if runner.Stats.Resets == 0 {
				t.Error("runner served no resets")
			}
		})
	}
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return al[i] + " vs " + bl[i]
		}
	}
	return "length mismatch"
}

// TestSnapshotParityWithPins runs the parity check under the static
// pre-analysis at pin level: the Runner serves repeat installs of the same
// dex from its digest cache (name-keyed ReApply) and must still match the
// fresh path — which re-runs static.Analyze every attempt — byte for byte.
func TestSnapshotParityWithPins(t *testing.T) {
	runner, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	app, ok := apps.ByName("case1")
	if !ok {
		t.Fatal("case1 missing")
	}
	opts := core.AnalyzeOptions{Budget: testBudget, FlowLog: true, Static: static.PinLevel}
	fresh := core.AnalyzeApp(app.Spec(), opts)

	optsSnap := opts
	optsSnap.Runner = runner
	first := core.AnalyzeApp(app.Spec(), optsSnap)
	second := core.AnalyzeApp(app.Spec(), optsSnap)

	for i, r := range []core.AppReport{first, second} {
		if r.Verdict() != fresh.Verdict() {
			t.Errorf("run %d: verdict %v, fresh %v", i, r.Verdict(), fresh.Verdict())
		}
		if outcomeOf(r).log != outcomeOf(fresh).log {
			t.Errorf("run %d: flow log diverged from fresh pin run", i)
		}
		if len(r.Final.Result.StaticViolations) != 0 {
			t.Errorf("run %d: static violations %v", i, r.Final.Result.StaticViolations)
		}
	}
	if fresh.Final.Result.Static.PinnedMethods > 0 &&
		second.Final.Result.Static.PinnedMethods != fresh.Final.Result.Static.PinnedMethods {
		t.Errorf("cached static result pins %d methods, fresh %d",
			second.Final.Result.Static.PinnedMethods, fresh.Final.Result.Static.PinnedMethods)
	}

	if runner.Stats.StaticRuns != 1 {
		t.Errorf("StaticRuns = %d, want 1 (second install should hit the digest cache)", runner.Stats.StaticRuns)
	}
	if runner.Stats.StaticReuses != 1 {
		t.Errorf("StaticReuses = %d, want 1", runner.Stats.StaticReuses)
	}
	// The cached pins must actually be re-seeded on the restored System.
	if fresh.Final.Result.Static.PinnedMethods > 0 && runner.System().VM.PinnedCleanCount() == 0 {
		t.Error("no clean pins on the VM after cache-served ReApply")
	}
}

// TestSnapshotResetCost checks the performance contract behind the fork
// server: a reset rewinds only the pages the attempt dirtied, which must be
// far fewer than the pages a warm boot maps.
func TestSnapshotResetCost(t *testing.T) {
	runner, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	app, ok := apps.ByName("case1")
	if !ok {
		t.Fatal("case1 missing")
	}
	opts := core.AnalyzeOptions{Budget: testBudget, Runner: runner}
	core.AnalyzeApp(app.Spec(), opts)
	core.AnalyzeApp(app.Spec(), opts) // second attempt restores the first's dirt
	total := runner.System().Mem.MappedPages()
	if runner.Stats.Resets < 2 {
		t.Fatalf("resets = %d, want >= 2", runner.Stats.Resets)
	}
	perReset := runner.Stats.GuestPagesReset / runner.Stats.Resets
	if perReset >= total {
		t.Errorf("reset copies %d pages per reset, not less than the %d mapped", perReset, total)
	}
	if runner.Stats.Boots != 1 {
		t.Errorf("boots = %d, want 1", runner.Stats.Boots)
	}
}

// TestRunStudyParallelDeterminism checks the per-worker-clone sweep: any
// worker count produces the same per-app verdicts and flow logs as the
// sequential fresh-System sweep, with rows in corpus order.
func TestRunStudyParallelDeterminism(t *testing.T) {
	seq := apps.RunStudy(apps.StudyOptions{Budget: testBudget, FlowLog: true})
	par := apps.RunStudyParallel(apps.StudyOptions{Budget: testBudget, FlowLog: true, Snapshot: true}, 3)

	if len(seq.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(seq.Rows), len(par.Rows))
	}
	for i := range seq.Rows {
		s, p := seq.Rows[i], par.Rows[i]
		if s.App.Name != p.App.Name {
			t.Fatalf("row %d: order differs: %s vs %s", i, s.App.Name, p.App.Name)
		}
		if s.Report.Verdict() != p.Report.Verdict() {
			t.Errorf("%s: verdict %v vs %v", s.App.Name, s.Report.Verdict(), p.Report.Verdict())
		}
		if outcomeOf(s.Report).log != outcomeOf(p.Report).log {
			t.Errorf("%s: parallel snapshot flow log diverged", s.App.Name)
		}
	}
	if par.RunnerStats.Resets == 0 {
		t.Error("parallel snapshot sweep served no resets")
	}
}

// TestRunnerMarshalPlansBounded: the JNI bridge memoizes marshalling plans
// by (shorty, static). A Runner fed a stream of distinct apps — shared-lib
// variants of the whole corpus, each installed afresh three times — holds
// at most one plan per signature shape their native methods use, never one
// per installed method (which would keep every app's dex tree reachable).
func TestRunnerMarshalPlansBounded(t *testing.T) {
	runner, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	type shape struct {
		shorty string
		static bool
	}
	shapes := make(map[shape]bool)
	for _, app := range apps.AllApps() {
		sys, err := core.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Install(sys); err != nil {
			continue // hostile installs fault; they cross no native method
		}
		for _, name := range sys.VM.Classes() {
			c, _ := sys.VM.Class(name)
			for _, m := range c.Methods {
				if m.IsNative() {
					shapes[shape{m.Shorty, m.IsStatic()}] = true
				}
			}
		}
	}
	for round := 0; round < 3; round++ {
		for _, app := range apps.AllApps() {
			core.AnalyzeApp(apps.SharedLibVariant(app).Spec(), core.AnalyzeOptions{
				Budget: testBudget, FlowLog: true, Static: static.PinLevel, Runner: runner,
			})
		}
	}
	if got := runner.System().VM.MarshalPlanCount(); got == 0 || got > len(shapes) {
		t.Errorf("Runner holds %d marshalling plans, want 1..%d (one per signature shape)", got, len(shapes))
	}
}
