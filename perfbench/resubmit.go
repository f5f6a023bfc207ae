package main

// The resubmit workload: the cache path. A persistent artifact store is
// filled with the corpus's verdicts during set-up; then one closed-loop
// client sends a seeded mix of four replays of already-judged digests to one
// fresh pad variant through a one-shard service. Replays run no guest code,
// so fingerprinting, dex checks and verdict-record Get/Put carry the load.

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/service"
)

const resubmitCycle = 5 // one fresh variant per cycle, the rest replays

// judged is the known report of a digest: the corpus's from set-up, a fresh
// variant's from its first computation.
type judged struct {
	verdict core.Verdict
	log     [sha256.Size]byte
}

// resubmitStream generates the op sequence from the seed alone, so a second
// pass on a second store replays exactly the same submissions. Which corpus
// app a fresh variant or a replay is drawn from follows shuffled decks, so
// every stretch of the stream holds each app in its share; the budget-bound
// and flood apps cost so much more than the rest that drawing them
// independently would make the seed, not the program, set the throughput.
type resubmitStream struct {
	rng    *rand.Rand
	pads   *padSource
	corpus []*apps.App
	subs   []submission // every judged-or-to-be-judged submission, corpus first
	byApp  [][]int      // corpus index -> indices into subs
	ops    []int        // op i submits subs[ops[i]]
	fresh  []bool       // op i is a fresh variant

	freshDeck, replayDeck []int
}

func newResubmitStream(seed int64) *resubmitStream {
	rng := rand.New(rand.NewSource(seed))
	s := &resubmitStream{rng: rng, pads: newPadSource(rng), corpus: apps.AllApps()}
	for i, a := range s.corpus {
		s.subs = append(s.subs, newSubmission(a, 0))
		s.byApp = append(s.byApp, []int{i})
	}
	return s
}

// draw deals the next corpus index from a deck, reshuffling when empty.
func (s *resubmitStream) draw(deck *[]int) int {
	if len(*deck) == 0 {
		*deck = s.rng.Perm(len(s.corpus))
	}
	a := (*deck)[0]
	*deck = (*deck)[1:]
	return a
}

// op returns op i's submission index and whether it is fresh.
func (s *resubmitStream) op(i int) (int, bool) {
	for len(s.ops) <= i {
		freshAt := s.rng.Intn(resubmitCycle)
		for j := 0; j < resubmitCycle; j++ {
			if j == freshAt {
				a := s.draw(&s.freshDeck)
				s.subs = append(s.subs, newSubmission(s.corpus[a], s.pads.next()))
				s.byApp[a] = append(s.byApp[a], len(s.subs)-1)
				s.ops = append(s.ops, len(s.subs)-1)
				s.fresh = append(s.fresh, true)
				continue
			}
			// Replay a digest of this app judged before this op.
			judged := s.byApp[s.draw(&s.replayDeck)]
			s.ops = append(s.ops, judged[s.rng.Intn(len(judged))])
			s.fresh = append(s.fresh, false)
		}
	}
	return s.ops[i], s.fresh[i]
}

// resubmitPass runs ops [0, n) (n < 0: until the deadline) against a service
// whose store holds the corpus's verdicts (known), checking each result.
func resubmitPass(svc *service.Service, stream *resubmitStream, known map[int]*judged, n int, deadline time.Time, tr *tracer) ([]*svcOp, time.Duration) {
	var ops []*svcOp
	start := time.Now()
	for i := 0; n < 0 || i < n; i++ {
		if n < 0 && time.Now().After(deadline) {
			break
		}
		si, fresh := stream.op(i)
		sub := stream.subs[si]
		root := tr.open("resubmit.submission", 0, i)
		t0 := time.Now()
		id := tr.open("service.submit", root, i)
		ch := svc.Submit(sub.spec)
		tr.done(id)
		id = tr.open("service.wait", root, i)
		r := <-ch
		tr.done(id)
		lat := time.Since(t0)
		tr.done(root)

		cid := tr.open("bench.check", 0, i)
		op := newSvcOp(sub, lat, r)
		if op.checked == nil {
			if fresh {
				known[si] = &judged{verdict: op.verdict, log: op.log}
			} else if k := known[si]; k == nil {
				op.checked = fmt.Errorf("%s: replayed before it was judged", sub.spec.Name)
			} else if k.verdict != op.verdict || k.log != op.log {
				op.checked = fmt.Errorf("%s: replay (%s) differs from its first report in verdict or flow log", sub.spec.Name, r.Source)
			}
		}
		tr.done(cid)
		ops = append(ops, op)
	}
	return ops, time.Since(start)
}

// resubmitSetup opens a store under root, fills it with the corpus's
// verdicts through a one-shard service, and records each first report.
func resubmitSetup(root string) (*service.Service, *cas.Store, map[int]*judged, float64, error) {
	var store *cas.Store
	newStore := func() (*cas.Store, error) {
		if store != nil {
			// A superseded set-up repetition's store is no longer needed.
			if err := os.RemoveAll(store.Dir()); err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(root, "store-")
		if err != nil {
			return nil, err
		}
		store, err = cas.Open(dir)
		return store, err
	}
	opts := service.Options{Workers: 1, Analyze: analyzeOptions}
	svc, ops, setupS, err := setupService(opts, newStore)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	known := make(map[int]*judged)
	for i, op := range ops {
		known[i] = &judged{verdict: op.verdict, log: op.log}
	}
	return svc, store, known, setupS, nil
}

func runResubmit(cfg config) (*result, error) {
	res := newResult()
	root, err := tempDir(cfg, "resubmit")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	svc, _, known, setupS, err := resubmitSetup(root)
	if err != nil {
		return nil, err
	}
	stream := newResubmitStream(cfg.seed)

	if !cfg.trace {
		heap := startHeap()
		ops, wall := resubmitPass(svc, stream, known, -1, time.Now().Add(secs(cfg.seconds)), nil)
		res.metrics["peak_heap_mb"] = heap.finish()
		svc.Close()
		m := opMap(ops)
		tally(res, m)
		// Latency is the replay path's, the workload's subject; the fresh
		// variants' is fresh_ms.p50 in the traced run. Mixing them would put
		// verdict_ms.p99 on the boundary between replayed and recomputed
		// hostile-rasp submissions, which the seed, not the program, decides.
		endToEndService(res, m, wall, func(o *svcOp) bool { return o.source == "verdict-cache" })
		res.metrics["setup_s"] = setupS
		return res, nil
	}

	// Pass U: untraced, a third of the time; its length fixes pass T.
	probe := startAlloc()
	opsU, wallU := resubmitPass(svc, stream, known, -1, time.Now().Add(secs(cfg.seconds/3)), nil)
	svc.Close()
	probe.stop(res, len(opsU))
	mU := opMap(opsU)
	tally(res, mU)
	sourceLatencies(res, mU)

	// Pass T: the same ops on a second, identically filled store, traced.
	svc, store, known, _, err := resubmitSetup(root)
	if err != nil {
		return nil, err
	}
	tr := newTracer("service")
	prof, err := startCPUProfile()
	if err != nil {
		svc.Close()
		return nil, err
	}
	before, svcBefore := store.Stats(), svc.Stats()
	opsT, wallT := resubmitPass(svc, stream, known, len(opsU), time.Time{}, tr)
	svc.Close()
	after := store.Stats()
	if err := prof.stop(res, traceFile(cfg, "cpu", "pprof")); err != nil {
		return nil, err
	}
	mT := opMap(opsT)
	tally(res, mT)
	serviceLayer(res, svcBefore, svc.Stats(), tr)
	var counts guestCounts
	for _, op := range mT {
		counts.add(op.counts)
	}
	counts.report(res)
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	res.metrics["cas.hits"] = float64(hits)
	res.metrics["cas.misses"] = float64(misses)
	res.metrics["cas.puts"] = float64(after.Puts - before.Puts)
	res.metrics["cas.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	res.metrics["cas.store_mb"] = dirMB(store.Dir())
	res.metrics["trace.overhead"] = ratio(wallT.Seconds(), wallU.Seconds())
	traceShares(res, tr, wallT, []string{"service.submit", "service.wait"}, []string{"bench.check"})
	if err := writeSpans(traceFile(cfg, "spans", "jsonl"), tr); err != nil {
		return nil, err
	}
	fmt.Printf("resubmit: %d submissions per pass; U %.2fs, T %.2fs\n", len(opsU), wallU.Seconds(), wallT.Seconds())
	return res, nil
}
