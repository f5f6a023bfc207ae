package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile (0 < q < 1) of xs by nearest rank; 0 when
// xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapSampler reads the live Go heap (the bytes a garbage collection found
// reachable) every heapEvery and keeps each heapWindow's maximum.
// peak_heap_mb is the median window maximum. It tracks what the program
// retains, such as a Runner's per-digest caches, without the noise of the
// resident set, which also holds garbage not yet collected and so rises
// and falls with how far collection lags behind on a busy host.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

const (
	heapEvery  = 20 * time.Millisecond
	heapWindow = 2 * time.Second
)

// startHeap first collects set-up garbage, as testing.B collects before each
// benchmark, so the measured window starts from the same heap state on every
// run.
func startHeap() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		windowEnd := time.Now().Add(heapWindow)
		peak := liveHeapMB()
		for {
			select {
			case <-h.stop:
				h.peaks = append(h.peaks, peak)
				return
			case now := <-tick.C:
				if now.After(windowEnd) {
					h.peaks = append(h.peaks, peak)
					peak, windowEnd = 0, now.Add(heapWindow)
				}
				peak = math.Max(peak, liveHeapMB())
			}
		}
	}()
	return h
}

// finish stops sampling and returns the median window peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}

// liveHeapMB reads the live heap as of the last garbage collection.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// rssHWMMB reads the process's resident-set high-water mark (VmHWM) in MiB.
func rssHWMMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// allocProbe measures Go heap allocation and GC cycles over an interval.
type allocProbe struct{ alloc, gcs uint64 }

func startAlloc() allocProbe {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocProbe{m.TotalAlloc, uint64(m.NumGC)}
}

// stop records go.alloc_mb_per_op and go.gc_cycles for ops operations.
func (p allocProbe) stop(res *result, ops int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.metrics["go.alloc_mb_per_op"] = ratio(float64(m.TotalAlloc-p.alloc)/(1<<20), float64(ops))
	res.metrics["go.gc_cycles"] = float64(uint64(m.NumGC) - p.gcs)
}

// span is one timed call at a layer boundary. Spans of one operation share
// Op; Parent is the enclosing span's ID (0 for a root).
type span struct {
	Pass   string `json:"pass"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends. A nil
// tracer records nothing, which is how untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex
	pass  string
	t0    time.Time
	spans []span
}

func newTracer(pass string) *tracer { return &tracer{pass: pass, t0: time.Now()} }

// open starts a span and returns its ID; close it with done.
func (t *tracer) open(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Pass: t.pass, ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) done(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns every closed span's duration in ms, by name.
func (t *tracer) durations() map[string][]float64 {
	out := make(map[string][]float64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End > 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part its direct children cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := make(map[string]float64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.End > 0 {
			out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e9
		}
	}
	return out
}

// writeSpans saves the tracers' spans as JSON lines.
func writeSpans(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		t.mu.Lock()
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				t.mu.Unlock()
				f.Close()
				return err
			}
		}
		t.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceFile names a traced run's output file of the given kind.
func traceFile(cfg config, kind, ext string) string {
	return fmt.Sprintf("%s/%s-%s-seed%d.%s", cfg.outDir, kind, cfg.workload, cfg.seed, ext)
}

// traceShares sets trace.coverage (program-call self time over the traced
// pass's wall time) and trace.bench_share (the benchmark's own checks), so
// the uncovered remainder is named rather than hidden.
func traceShares(res *result, tr *tracer, wall time.Duration, program []string, bench []string) {
	self := tr.selfTimes()
	var prog, own float64
	for _, n := range program {
		prog += self[n]
	}
	for _, n := range bench {
		own += self[n]
	}
	res.metrics["trace.coverage"] = ratio(prog, wall.Seconds())
	res.metrics["trace.bench_share"] = ratio(own, wall.Seconds())
}
