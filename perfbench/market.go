package main

// The market workload: a sweep of apps the analyzer has never seen (§III/§VI
// of the paper). Seeded decks over apps.AllApps() are padded so every
// submission has new app/dex/static digests while the native libraries stay
// shared, and two closed-loop clients push them through an in-memory
// service with two shards.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/static"
	"repro/internal/summary"
)

const (
	marketClients = 2 // closed-loop clients, one per CPU of the reference machine
	marketWorkers = 2 // service shards
)

// serve drives the stream through svc from closed-loop clients until the
// deadline passes (zero: until the stream's replay limit).
func serve(svc *service.Service, stream *deckStream, clients int, deadline time.Time, tr *tracer) (map[int]*svcOp, time.Duration) {
	ops := make(map[int]*svcOp)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	var last time.Time
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				i := stream.next()
				if i < 0 {
					return
				}
				sub := stream.at(i)
				root := tr.open("market.submission", 0, i)
				t0 := time.Now()
				sid := tr.open("service.submit", root, i)
				ch := svc.Submit(sub.spec)
				tr.done(sid)
				wid := tr.open("service.wait", root, i)
				r := <-ch
				tr.done(wid)
				end := time.Now()
				tr.done(root)

				cid := tr.open("bench.check", 0, i)
				op := newSvcOp(sub, end.Sub(t0), r)
				tr.done(cid)
				mu.Lock()
				ops[i] = op
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if last.IsZero() {
		last = time.Now()
	}
	return ops, last.Sub(start)
}

// marketWarm is how long the stream runs before measurement: the shard
// Runners' translation caches and the Go heap take several seconds of
// traffic to settle, and a long-running service is measured settled.
const marketWarm = 5 * time.Second

func runMarket(cfg config) (*result, error) {
	res := newResult()
	opts := service.Options{Workers: marketWorkers, Analyze: analyzeOptions}
	svc, _, setupS, err := setupService(opts, nil)
	if err != nil {
		return nil, err
	}
	stream := newDeckStream(cfg.seed)
	warmOps, _ := serve(svc, stream, marketClients, time.Now().Add(marketWarm), nil)
	tally(res, warmOps)
	w := len(warmOps)

	if !cfg.trace {
		heap := startHeap()
		ops, wall := serve(svc, stream, marketClients, time.Now().Add(secs(cfg.seconds)), nil)
		res.metrics["peak_heap_mb"] = heap.finish()
		svc.Close()
		tally(res, ops)
		endToEndService(res, ops, wall, func(*svcOp) bool { return true })
		res.metrics["setup_s"] = setupS
		return res, nil
	}

	// Traced run. Pass U: the stream untraced for a third of the time; its
	// K submissions are what the traced passes replay.
	probe := startAlloc()
	ops, wallU := serve(svc, stream, marketClients, time.Now().Add(secs(cfg.seconds/3)), nil)
	svc.Close()
	k := len(ops)
	probe.stop(res, k)
	tally(res, ops)
	sourceLatencies(res, ops)

	dec, err := newDecomposer()
	if err != nil {
		return nil, err
	}

	// Pass T: the same K submissions through a fresh service, warmed like
	// the first, with spans around Submit and the result wait.
	svc, err = service.New(opts)
	if err != nil {
		return nil, err
	}
	if _, err := warm(svc, corpusSubs()); err != nil {
		svc.Close()
		return nil, err
	}
	stream.rewind(0, w)
	serve(svc, stream, marketClients, time.Time{}, nil)
	tr := newTracer("service")
	prof, err := startCPUProfile()
	if err != nil {
		svc.Close()
		return nil, err
	}
	before := svc.Stats()
	stream.rewind(w, w+k)
	traced, wallT := serve(svc, stream, marketClients, time.Time{}, tr)
	svc.Close()
	serviceLayer(res, before, svc.Stats(), tr)

	// Pass D: the same K submissions decomposed into the public phase calls,
	// each checked against pass T for parity.
	trD := newTracer("decomposed")
	dec, wallD := decomposedPass(res, dec, stream, w, w+k, traced, trD)
	if err := prof.stop(res, traceFile(cfg, "cpu", "pprof")); err != nil {
		return nil, err
	}
	dec.report(res)
	traceShares(res, trD, wallD, decomposedPhases, []string{"bench.check"})
	if err := synthesizeLibs(res, stream, w, w+k); err != nil {
		return nil, err
	}
	if err := writeSpans(traceFile(cfg, "spans", "jsonl"), tr, trD); err != nil {
		return nil, err
	}
	fmt.Printf("market: %d submissions per pass after %d warm-up; U %.2fs, T %.2fs, D %.2fs (traced half)\n",
		k, w, wallU.Seconds(), wallT.Seconds(), wallD.Seconds())
	return res, nil
}

// synthesizeLibs times summary.SynthesizeLib(static.LibCFG(..)) directly,
// once per distinct native library among submissions [from, to) (median of
// three calls each); summary.synthesize_ms is the total over libraries.
func synthesizeLibs(res *result, stream *deckStream, from, to int) error {
	sys, err := core.NewSystem()
	if err != nil {
		return err
	}
	snap := sys.Snapshot()
	seen := make(map[string]bool)
	var total float64
	for i := from; i < to; i++ {
		app := stream.at(i).app
		if seen["app:"+app.Name] {
			continue
		}
		seen["app:"+app.Name] = true
		if _, err := snap.Restore(); err != nil {
			return err
		}
		if err := app.Install(sys); err != nil {
			continue // an app whose install fails ships no library to synthesize
		}
		for _, lib := range sys.VM.NativeLibs() {
			key := cas.DigestBytes(lib.Prog.Code)
			if seen[key] {
				continue
			}
			seen[key] = true
			var times []float64
			for r := 0; r < 3; r++ {
				t0 := time.Now()
				summary.SynthesizeLib(static.LibCFG(sys.VM, lib), false)
				times = append(times, ms(time.Since(t0)))
			}
			total += median(times)
		}
	}
	res.metrics["summary.synthesize_ms"] = total
	return nil
}
