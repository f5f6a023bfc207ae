package core

import (
	"fmt"
	"testing"

	"repro/internal/dex"
	"repro/internal/static"
)

// paddedSpec is a minimal app whose content digest is distinct per pad, the
// way a market sweep submits never-seen apps.
func paddedSpec(pad int32) AppSpec {
	const cls = "Lcom/test/lru/Main;"
	return AppSpec{
		Name:        fmt.Sprintf("lru-%d", pad),
		EntryClass:  cls,
		EntryMethod: "run",
		Install: func(sys *System) error {
			cb := dex.NewClass(cls)
			cb.Method("run", "V", dex.AccStatic, 1).
				Const(0, pad).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return nil
		},
	}
}

// wildSpec stores through a NULL pointer from native code, so its analysis
// walks the whole degradation ladder (ndroid, taintdroid, vanilla).
func wildSpec() AppSpec {
	const cls = "Lcom/test/lruwild/Main;"
	return AppSpec{
		Name:        "lru-wild",
		EntryClass:  cls,
		EntryMethod: "run",
		Install: func(sys *System) error {
			prog, err := sys.VM.LoadNativeLib("liblruwild.so", `
Java_smash:
	MOV R0, #0
	STR R0, [R0]
	BX LR
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("smash", "V", dex.AccStatic, 0)
			cb.Method("run", "V", dex.AccStatic, 1).
				InvokeStatic(cls, "smash", "V").
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "smash", prog, "Java_smash")
		},
	}
}

// TestRunnerStaticsBounded: a Runner fed more distinct app digests than the
// static cache holds keeps at most staticCacheSize results (each one pins a
// dex tree), evicting the least recently used; a retained digest is still
// served from the cache.
func TestRunnerStaticsBounded(t *testing.T) {
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	opts := AnalyzeOptions{Runner: r, Static: static.PinLevel}
	n := staticCacheSize + 8
	for pad := int32(1); pad <= int32(n); pad++ {
		if rep := AnalyzeApp(paddedSpec(pad), opts); rep.Verdict() != VerdictClean {
			t.Fatalf("pad %d: verdict %v, want clean", pad, rep.Verdict())
		}
		if got := r.statics.len(); got > staticCacheSize {
			t.Fatalf("after %d digests the Runner holds %d static results, want <= %d", pad, got, staticCacheSize)
		}
	}
	if r.statics.len() != staticCacheSize {
		t.Errorf("held %d static results, want a full cache of %d", r.statics.len(), staticCacheSize)
	}
	if r.Stats.StaticRuns != n || r.Stats.StaticReuses != 0 {
		t.Fatalf("StaticRuns=%d StaticReuses=%d, want %d and 0", r.Stats.StaticRuns, r.Stats.StaticReuses, n)
	}
	// The newest digest is served from the cache; the oldest was evicted.
	AnalyzeApp(paddedSpec(int32(n)), opts)
	if r.Stats.StaticReuses != 1 {
		t.Errorf("re-install of a retained digest: StaticReuses=%d, want 1", r.Stats.StaticReuses)
	}
	AnalyzeApp(paddedSpec(1), opts)
	if r.Stats.StaticRuns != n+1 {
		t.Errorf("re-install of an evicted digest: StaticRuns=%d, want %d", r.Stats.StaticRuns, n+1)
	}
}

// TestRunnerStaticsServeLadderRetries: the degradation ladder re-installs
// the same app once per rung; every retry after the first attempt reuses the
// cached pre-analysis, even with the cache already full of other digests.
func TestRunnerStaticsServeLadderRetries(t *testing.T) {
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	opts := AnalyzeOptions{Runner: r, Static: static.PinLevel}
	for pad := int32(1); pad <= staticCacheSize; pad++ {
		AnalyzeApp(paddedSpec(pad), opts)
	}
	runs, reuses := r.Stats.StaticRuns, r.Stats.StaticReuses
	rep := AnalyzeApp(wildSpec(), opts)
	if rep.Verdict() != VerdictFault || len(rep.Chain) != 3 {
		t.Fatalf("verdict %v chain %s, want a fault after three rungs", rep.Verdict(), rep.ChainString())
	}
	if got := r.Stats.StaticRuns - runs; got != 1 {
		t.Errorf("ladder ran the pre-analysis %d times, want 1", got)
	}
	if got := r.Stats.StaticReuses - reuses; got != 2 {
		t.Errorf("ladder retries reused the pre-analysis %d times, want 2", got)
	}
	if r.statics.len() != staticCacheSize {
		t.Errorf("held %d static results, want %d", r.statics.len(), staticCacheSize)
	}
}
