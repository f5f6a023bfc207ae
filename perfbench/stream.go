package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/static"
)

// analyzeOptions is the production configuration every service workload
// submits under: NDroid with the flow log on, static pins and validated
// summaries.
var analyzeOptions = core.AnalyzeOptions{
	Mode:      core.ModeNDroid,
	FlowLog:   true,
	Static:    static.PinLevel,
	Summaries: core.SummaryValidated,
}

// submission is one generated app: a corpus app, optionally padded with a
// benchmark-built class whose constant moves every app/dex/static digest
// while the native libraries stay byte-identical.
type submission struct {
	app  *apps.App
	pad  int32 // 0: the corpus app itself
	spec core.AppSpec
}

func newSubmission(app *apps.App, pad int32) submission {
	spec := app.Spec()
	if pad != 0 {
		spec.Name = fmt.Sprintf("%s+pad%08x", app.Name, uint32(pad))
		spec.Install = func(sys *core.System) error {
			if err := app.Install(sys); err != nil {
				return err
			}
			cb := dex.NewClass("Lcom/ndroid/bench/Pad;")
			cb.Method("pad", "I", dex.AccStatic, 1).
				Const(0, pad).
				Return(0).
				Done()
			sys.VM.RegisterClass(cb.Build())
			return nil
		}
	}
	return submission{app: app, pad: pad, spec: spec}
}

// padSource hands out distinct non-zero seeded pad constants.
type padSource struct {
	rng  *rand.Rand
	used map[int32]bool
}

func newPadSource(rng *rand.Rand) *padSource {
	return &padSource{rng: rng, used: make(map[int32]bool)}
}

func (p *padSource) next() int32 {
	for {
		c := int32(p.rng.Uint32())
		if c != 0 && !p.used[c] {
			p.used[c] = true
			return c
		}
	}
}

// deckStream is the market stream: seeded shuffled decks over
// apps.AllApps(), each app padded with a fresh constant, generated on demand
// so any number of clients can draw from it and a later pass can replay the
// same prefix.
type deckStream struct {
	mu     sync.Mutex
	rng    *rand.Rand
	pads   *padSource
	corpus []*apps.App
	subs   []submission
	drawn  int // next index handed out
	limit  int // > 0: next stops here (replay)
}

func newDeckStream(seed int64) *deckStream {
	rng := rand.New(rand.NewSource(seed))
	return &deckStream{rng: rng, pads: newPadSource(rng), corpus: apps.AllApps()}
}

// at returns submission i, extending the stream deck by deck as needed.
func (s *deckStream) at(i int) submission {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.subs) <= i {
		for _, j := range s.rng.Perm(len(s.corpus)) {
			s.subs = append(s.subs, newSubmission(s.corpus[j], s.pads.next()))
		}
	}
	return s.subs[i]
}

// next hands out the next submission index, or -1 at the replay limit.
func (s *deckStream) next() int {
	s.mu.Lock()
	i := s.drawn
	if s.limit > 0 && i >= s.limit {
		s.mu.Unlock()
		return -1
	}
	s.drawn++
	s.mu.Unlock()
	return i
}

// rewind makes next replay submissions [from, to).
func (s *deckStream) rewind(from, to int) {
	s.mu.Lock()
	s.drawn, s.limit = from, to
	s.mu.Unlock()
}

// checkKnown compares a report with the app's known answer: the expected
// verdict, and for leaks the expected sink carrying every expected tag.
func checkKnown(app *apps.App, rep core.AppReport) error {
	if got, want := rep.Verdict(), app.ExpectedVerdict(); got != want {
		return fmt.Errorf("%s: verdict %s, want %s (chain %s)", app.Name, got, want, rep.ChainString())
	}
	if app.ExpectedVerdict() != core.VerdictLeak || app.ExpectSink == "" {
		return nil
	}
	for _, l := range rep.Final.Result.Leaks {
		if l.Sink == app.ExpectSink && l.Tag&app.ExpectTag == app.ExpectTag {
			return nil
		}
	}
	return fmt.Errorf("%s: no leak at %s carrying tag %v", app.Name, app.ExpectSink, app.ExpectTag)
}

// logDigest identifies a flow log byte for byte: SHA-256 over the
// length-prefixed lines.
func logDigest(lines []string) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	for _, l := range lines {
		binary.LittleEndian.PutUint64(n[:], uint64(len(l)))
		h.Write(n[:])
		h.Write([]byte(l))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
