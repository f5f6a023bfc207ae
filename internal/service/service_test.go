package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/service"
)

const testBudget = 1 << 21

func mustApp(t *testing.T, name string) *apps.App {
	t.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("%s missing from registry", name)
	}
	return app
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightDedup holds a flight open at the injected gap and lands a
// twin submission in the window: the analysis must run once, both submitters
// must receive the result, and the twin must be labeled a dedup.
func TestSingleFlightDedup(t *testing.T) {
	app := mustApp(t, "case1")
	svc, err := service.New(service.Options{
		Workers: 2,
		Analyze: core.AnalyzeOptions{Budget: testBudget, FlowLog: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	entered := make(chan string, 1)
	gate := make(chan struct{})
	svc.SetFlightGap(func(digest string) {
		entered <- digest
		<-gate
	})

	firstCh := make(chan service.Result, 1)
	go func() { firstCh <- <-svc.Submit(app.Spec()) }()
	digest := <-entered

	// The twin carries a different display name; content digest is identical,
	// so it must join the open flight rather than start its own.
	twin := app.Spec()
	twin.Name = "case1-under-alias"
	secondCh := make(chan service.Result, 1)
	go func() { secondCh <- <-svc.Submit(twin) }()
	waitFor(t, "twin to join the flight", func() bool { return svc.Stats().Deduped == 1 })

	close(gate)
	first, second := <-firstCh, <-secondCh
	if first.Err != nil || second.Err != nil {
		t.Fatalf("errs: %v / %v", first.Err, second.Err)
	}
	if first.Digest != digest || second.Digest != digest {
		t.Errorf("digests diverge: %s / %s / %s", digest, first.Digest, second.Digest)
	}
	if first.Source != "computed" || second.Source != "dedup" {
		t.Errorf("sources = %q / %q, want computed / dedup", first.Source, second.Source)
	}
	if second.Name != "case1-under-alias" || second.Report.Name != "case1-under-alias" {
		t.Errorf("dedup result lost its submitter's name: %q / %q", second.Name, second.Report.Name)
	}
	wantLog := strings.Join(first.Report.Final.Result.LogLines, "\n")
	gotLog := strings.Join(second.Report.Final.Result.LogLines, "\n")
	if second.Report.Verdict() != first.Report.Verdict() || gotLog != wantLog {
		t.Error("dedup twin's outcome differs from the computed one")
	}
	st := svc.Stats()
	if st.Computed != 1 || st.Submitted != 2 || st.Deduped != 1 {
		t.Errorf("stats = %+v, want 1 computed / 2 submitted / 1 deduped", st)
	}
}

// TestVerdictShortCircuit: a digest judged once under a store is answered
// from its verdict record by a later service over the same store — with a
// byte-identical report and zero analyses run.
func TestVerdictShortCircuit(t *testing.T) {
	app := mustApp(t, "qqphonebook")
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	aOpts := core.AnalyzeOptions{Budget: testBudget, FlowLog: true}

	svc1, err := service.New(service.Options{Cache: store, Analyze: aOpts})
	if err != nil {
		t.Fatal(err)
	}
	cold := <-svc1.Submit(app.Spec())
	svc1.Close()
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if cold.Source != "computed" {
		t.Fatalf("cold source = %q", cold.Source)
	}

	svc2, err := service.New(service.Options{Cache: store, Analyze: aOpts})
	if err != nil {
		t.Fatal(err)
	}
	warm := <-svc2.Submit(app.Spec())
	svc2.Close()
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if warm.Source != "verdict-cache" {
		t.Fatalf("warm source = %q, want verdict-cache", warm.Source)
	}
	if st := svc2.Stats(); st.Computed != 0 || st.VerdictHits != 1 {
		t.Errorf("warm stats = %+v, want 0 computed / 1 verdict hit", st)
	}

	cr, wr := cold.Report, warm.Report
	if wr.Verdict() != cr.Verdict() || wr.Degraded != cr.Degraded || wr.ChainString() != cr.ChainString() {
		t.Errorf("replayed chain %s (degraded=%t) vs computed %s (degraded=%t)",
			wr.ChainString(), wr.Degraded, cr.ChainString(), cr.Degraded)
	}
	if got, want := strings.Join(wr.Final.Result.LogLines, "\n"), strings.Join(cr.Final.Result.LogLines, "\n"); got != want {
		t.Error("replayed flow log is not byte-identical to the computed one")
	}
	if wr.Final.Result.JavaInsns != cr.Final.Result.JavaInsns ||
		wr.Final.Result.NativeInsns != cr.Final.Result.NativeInsns ||
		len(wr.Final.Result.Leaks) != len(cr.Final.Result.Leaks) {
		t.Error("replayed counters diverge from the computed run")
	}

	// A different analysis configuration must not resolve to the record.
	bOpts := aOpts
	bOpts.Mode = core.ModeTaintDroid
	svc3, err := service.New(service.Options{Cache: store, Analyze: bOpts})
	if err != nil {
		t.Fatal(err)
	}
	other := <-svc3.Submit(app.Spec())
	svc3.Close()
	if other.Err != nil {
		t.Fatal(other.Err)
	}
	if other.Source != "computed" {
		t.Errorf("taintdroid-mode source = %q: verdict record leaked across analysis options", other.Source)
	}
}

// TestStreamingOutput: one parseable JSON line per completed submission, in
// completion order, carrying verdict and provenance.
func TestStreamingOutput(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	svc, err := service.New(service.Options{
		Workers: 2,
		Cache:   store,
		Out:     &out,
		Analyze: core.AnalyzeOptions{Budget: testBudget, FlowLog: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	corpus := []*apps.App{mustApp(t, "case1"), mustApp(t, "benign"), mustApp(t, "case1")}
	var chans []<-chan service.Result
	for _, app := range corpus {
		chans = append(chans, svc.Submit(app.Spec()))
	}
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	svc.Close()

	verdicts := map[string]string{}
	lines := 0
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		lines++
		var line struct {
			App     string `json:"app"`
			Digest  string `json:"digest"`
			Verdict string `json:"verdict"`
			Chain   string `json:"chain"`
			Source  string `json:"source"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("unparseable stream line %q: %v", sc.Text(), err)
		}
		if line.App == "" || line.Digest == "" || line.Verdict == "" || line.Source == "" {
			t.Errorf("incomplete stream line: %q", sc.Text())
		}
		verdicts[line.App] = line.Verdict
	}
	if lines != len(corpus) {
		t.Errorf("streamed %d lines for %d submissions", lines, len(corpus))
	}
	if verdicts["case1"] != "leak" || verdicts["benign"] != "clean" {
		t.Errorf("streamed verdicts %v", verdicts)
	}
}

// TestResubmissionDigestStable: repeated submissions of one app carry the
// same digest whichever of several workers serves them, and without a verdict
// store each one is computed.
func TestResubmissionDigestStable(t *testing.T) {
	app := mustApp(t, "benign")
	svc, err := service.New(service.Options{
		Workers: 4,
		Analyze: core.AnalyzeOptions{Budget: testBudget},
	})
	if err != nil {
		t.Fatal(err)
	}
	var digest string
	for i := 0; i < 3; i++ {
		res := <-svc.Submit(app.Spec())
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if digest == "" {
			digest = res.Digest
		} else if res.Digest != digest {
			t.Fatalf("digest moved between submissions: %s vs %s", res.Digest, digest)
		}
	}
	svc.Close()
	// Uncached service: no verdict records, so all three ran.
	if st := svc.Stats(); st.Computed != 3 {
		t.Fatalf("computed = %d, want 3 (no verdict store attached)", st.Computed)
	}
}

// TestHeadOfLineWorkConserving parks one of two workers on a submission and
// requires ten other submissions to complete meanwhile: a job never waits
// behind a busy worker while another worker is free.
func TestHeadOfLineWorkConserving(t *testing.T) {
	svc, err := service.New(service.Options{
		Workers: 2,
		Analyze: core.AnalyzeOptions{Budget: testBudget, FlowLog: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	parked := make(chan string, 1)
	release := make(chan struct{})
	var first atomic.Bool
	svc.SetWorkerGap(func(digest string) {
		if first.CompareAndSwap(false, true) {
			parked <- digest
			<-release
		}
	})

	parkedCh := svc.Submit(mustApp(t, "benign").Spec())
	parkedDigest := <-parked

	var others []core.AppSpec
	for _, name := range []string{"case1", "qqphonebook", "ephone", "poc-case2", "poc-case3",
		"case3-pull", "case4", "rebind", "summix", "sumfold"} {
		others = append(others, mustApp(t, name).Spec())
	}
	done := make(chan []service.Result, 1)
	go func() {
		var chans []<-chan service.Result
		for _, spec := range others {
			chans = append(chans, svc.Submit(spec))
		}
		var results []service.Result
		for _, ch := range chans {
			results = append(results, <-ch)
		}
		done <- results
	}()
	select {
	case results := <-done:
		for _, res := range results {
			if res.Err != nil || res.Source != "computed" {
				t.Errorf("%s: err=%v source=%q, want a computed result", res.Name, res.Err, res.Source)
			}
			if res.Digest == parkedDigest {
				t.Errorf("%s shares the parked submission's digest", res.Name)
			}
		}
	case <-time.After(30 * time.Second):
		close(release)
		t.Fatal("submissions stalled behind the parked worker while the other worker was free")
	}
	if st := svc.Stats(); st.Computed != len(others) {
		t.Errorf("computed = %d while parked, want %d", st.Computed, len(others))
	}

	close(release)
	res := <-parkedCh
	if res.Err != nil || res.Source != "computed" || res.Digest != parkedDigest {
		t.Errorf("parked submission: err=%v source=%q digest match=%t", res.Err, res.Source, res.Digest == parkedDigest)
	}
	svc.Close()
	if st := svc.Stats(); st.Computed != len(others)+1 || st.Submitted != len(others)+1 {
		t.Errorf("stats = %+v, want %d submitted and computed", st, len(others)+1)
	}
}

// TestSubmitCloseRace closes the service while many goroutines submit. No
// Submit may panic on the closed queue, and every returned channel delivers
// exactly one Result: an analysis outcome or a "submit after Close" error.
func TestSubmitCloseRace(t *testing.T) {
	svc, err := service.New(service.Options{
		Workers:    2,
		QueueDepth: 1,
		Analyze:    core.AnalyzeOptions{Budget: testBudget},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"case1", "benign", "case4", "summix", "ephone", "sumfold"}
	const n = 32
	specs := make([]core.AppSpec, n)
	for i := range specs {
		specs[i] = mustApp(t, names[i%len(names)]).Spec()
	}
	chans := make([]<-chan service.Result, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			chans[i] = svc.Submit(specs[i])
		}(i)
	}
	close(start)
	// Close once a few submissions are in: the rest are mid-fingerprint,
	// blocked on a full queue, or not yet at the closed check.
	waitFor(t, "submissions to start", func() bool { return svc.Stats().Submitted >= 4 })
	svc.Close()
	wg.Wait()

	refused := 0
	for i, ch := range chans {
		res, ok := <-ch
		if !ok {
			t.Fatalf("submission %d: channel closed without a Result", i)
		}
		if _, more := <-ch; more {
			t.Fatalf("submission %d: channel delivered a second Result", i)
		}
		switch {
		case res.Err != nil && strings.Contains(res.Err.Error(), "submit after Close"):
			refused++
		case res.Err != nil:
			t.Errorf("submission %d: %v", i, res.Err)
		case res.Source != "computed" && res.Source != "dedup":
			t.Errorf("submission %d: source %q", i, res.Source)
		}
	}
	st := svc.Stats()
	if st.Submitted+refused != n || st.Computed+st.Deduped != st.Submitted {
		t.Errorf("stats = %+v with %d refused, want submitted+refused = %d and computed+deduped = submitted", st, refused, n)
	}
}

// TestVerdictKeyCoversEveryOption: every analysis option except the Runner
// changes the verdict key. An option the key forgets would let a service
// replay a verdict recorded under a different configuration.
func TestVerdictKeyCoversEveryOption(t *testing.T) {
	fp := core.Fingerprint{App: "app-digest"}
	base := service.VerdictKey(fp, core.AnalyzeOptions{})
	typ := reflect.TypeOf(core.AnalyzeOptions{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Runner" {
			continue
		}
		var o core.AnalyzeOptions
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(1)
		default:
			t.Fatalf("AnalyzeOptions.%s has kind %s; teach this test a non-zero value for it", f.Name, v.Kind())
		}
		if service.VerdictKey(fp, o) == base {
			t.Errorf("setting AnalyzeOptions.%s leaves the verdict key unchanged", f.Name)
		}
	}
}
