package cfbench

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// TestAblations runs every ablation once over the corpus under a tight
// budget: each must hold parity, pass its gate, and time every cell of every
// arm.
func TestAblations(t *testing.T) {
	abls, err := Ablations(1<<21, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range abls {
		names = append(names, a.Name)
		a := a
		t.Run(a.Name, func(t *testing.T) {
			res, err := a.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.ParityOK {
				t.Errorf("parity mismatch: %s", res.ParityDetail)
			}
			if !res.GateOK {
				t.Errorf("gate failed: %s", res.GateDetail)
			}
			for _, arm := range res.Arms {
				if arm.Apps+arm.BudgetBoundApps != len(res.Cells) || arm.AppsPerSec <= 0 {
					t.Errorf("%s arm timed %d+%d of %d cells at %.1f apps/sec",
						arm.Name, arm.Apps, arm.BudgetBoundApps, len(res.Cells), arm.AppsPerSec)
				}
			}
		})
	}
	if got := strings.Join(names, ","); got != "snapshot,fuse,cache,surface,summaries" {
		t.Errorf("ablations = %s", got)
	}
}

// TestAblationParityCatchesDivergence breaks one cell of one arm: the
// harness must fail parity and name that cell.
func TestAblationParityCatchesDivergence(t *testing.T) {
	base := analyzeArm("base", 1<<21, core.AnalyzeOptions{})
	broken := Arm{Name: "broken", Run: func(app *apps.App, mode core.Mode) core.AppReport {
		rep := base.Run(app, mode)
		if app.Name == "qqphonebook" {
			rep.Final.Result.LogLines = append(rep.Final.Result.LogLines, "injected line")
		}
		return rep
	}}
	res, err := Ablation{Name: "broken", Arms: []Arm{base, broken}, modes: []core.Mode{core.ModeNDroid}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ParityOK {
		t.Fatal("parity OK with a flow log that gained a line")
	}
	if !strings.Contains(res.ParityDetail, "broken arm, ndroid/qqphonebook") {
		t.Errorf("detail %q does not name the broken cell", res.ParityDetail)
	}
}
