package main

import (
	"context"
	"io"
	"runtime"
	"sync"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/core"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
)

// span is one timed call into a layer, recorded by this package.
type span struct {
	id, parent int
	iteration  int
	layer      string
	name       string
	start, end time.Time
	attrs      map[string]any
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps one traced iteration's spans in memory. A nil tracer
// records nothing, so untraced iterations share the call sites.
type tracer struct {
	iteration int

	mu      sync.Mutex
	next    int
	spans   []span
	lastRun map[string]time.Time // cell → end of its last Run
}

func newTracer(iteration int) *tracer {
	return &tracer{iteration: iteration, lastRun: map[string]time.Time{}}
}

// reserve returns a fresh span id (0 when untraced), so a span can be
// named as the parent of spans that end before it does.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// put stores a finished span under a reserved id.
func (t *tracer) put(id, parent int, layer, name string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		id: id, parent: parent, iteration: t.iteration,
		layer: layer, name: name, start: start, end: end, attrs: attrs,
	})
}

// record stores a finished span under a fresh id.
func (t *tracer) record(parent int, layer, name string, start, end time.Time, attrs map[string]any) {
	t.put(t.reserve(), parent, layer, name, start, end, attrs)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func cellKey(p, g string, a algo.Kind) string { return p + "/" + g + "/" + string(a) }

// runEnded notes when a cell's latest Run returned; the Progress
// callback turns the gap to its own call into the cell's validation
// span.
func (t *tracer) runEnded(key string, end time.Time) {
	t.mu.Lock()
	t.lastRun[key] = end
	t.mu.Unlock()
}

// progress is the Benchmark.Progress callback of a traced pass.
func (t *tracer) progress(parent int) func(report.RunResult) {
	return func(r report.RunResult) {
		now := time.Now()
		key := cellKey(r.Platform, r.Graph, r.Algorithm)
		t.mu.Lock()
		end, ok := t.lastRun[key]
		delete(t.lastRun, key)
		t.mu.Unlock()
		if ok {
			t.record(parent, "validate", string(r.Algorithm), end, now,
				map[string]any{"platform": r.Platform, "graph": r.Graph})
		}
	}
}

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// traceable wraps p so LoadGraph and Run are recorded as etl and kernel
// spans under parent. The wrapper forwards every optional platform
// interface the engine implements — ConcurrencyHinter, ConfigStamper
// and CachedLoader — so the traced campaign schedules, fingerprints and
// caches exactly as the untraced one does.
func traceable(p platform.Platform, t *tracer, parent int) platform.Platform {
	tp := &tracedPlatform{inner: p, t: t, parent: parent}
	if cl, ok := p.(platform.CachedLoader); ok {
		return &tracedCachedPlatform{tracedPlatform: tp, cl: cl}
	}
	return tp
}

type tracedPlatform struct {
	inner  platform.Platform
	t      *tracer
	parent int
}

func (p *tracedPlatform) Name() string { return p.inner.Name() }

func (p *tracedPlatform) ConcurrencyLimit() int { return platform.ConcurrencyLimitOf(p.inner) }

func (p *tracedPlatform) StampConfig() string { return platform.StampConfigOf(p.inner) }

func (p *tracedPlatform) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	start := time.Now()
	l, err := p.inner.LoadGraph(g)
	p.t.record(p.parent, "etl", "LoadGraph", start, time.Now(),
		map[string]any{"platform": p.Name(), "graph": g.Name()})
	if err != nil {
		return nil, err
	}
	return &tracedLoaded{inner: l, p: p}, nil
}

type tracedCachedPlatform struct {
	*tracedPlatform
	cl platform.CachedLoader
}

func (p *tracedCachedPlatform) ETLVersion() string { return p.cl.ETLVersion() }

func (p *tracedCachedPlatform) WriteETL(l platform.Loaded, w io.Writer) error {
	if tl, ok := l.(*tracedLoaded); ok {
		l = tl.inner
	}
	return p.cl.WriteETL(l, w)
}

func (p *tracedCachedPlatform) ReadETL(g *graph.Graph, r io.Reader) (platform.Loaded, error) {
	start := time.Now()
	l, err := p.cl.ReadETL(g, r)
	p.t.record(p.parent, "etl", "ReadETL", start, time.Now(),
		map[string]any{"platform": p.Name(), "graph": g.Name()})
	if err != nil {
		return nil, err
	}
	return &tracedLoaded{inner: l, p: p.tracedPlatform}, nil
}

type tracedLoaded struct {
	inner platform.Loaded
	p     *tracedPlatform
}

func (l *tracedLoaded) Graph() *graph.Graph { return l.inner.Graph() }

func (l *tracedLoaded) Close() error { return l.inner.Close() }

// Run records a kernel span with the bytes allocated during the run.
// The allocation delta is the kernel's own only while no other cell
// runs, which holds for the local workloads (Parallelism 1).
func (l *tracedLoaded) Run(ctx context.Context, kind algo.Kind, params algo.Params) (*platform.Result, error) {
	a0 := totalAlloc()
	start := time.Now()
	res, err := l.inner.Run(ctx, kind, params)
	end := time.Now()
	a1 := totalAlloc()
	name, g := l.p.Name(), l.inner.Graph().Name()
	l.p.t.record(l.p.parent, "kernel", string(kind), start, end,
		map[string]any{"platform": name, "graph": g, "alloc_bytes": a1 - a0})
	l.p.t.runEnded(cellKey(name, g, kind), end)
	return res, err
}

// tracedExecutor wraps the distributed manager so each leased cell's
// round trip (queue wait, lease, remote run, result) is one dist span.
type tracedExecutor struct {
	inner  core.CellExecutor
	t      *tracer
	parent int
}

func (e *tracedExecutor) ExecuteCell(ctx context.Context, spec core.CellSpec) (report.RunResult, error) {
	start := time.Now()
	r, err := e.inner.ExecuteCell(ctx, spec)
	e.t.record(e.parent, "dist", "ExecuteCell", start, time.Now(),
		map[string]any{"platform": spec.Platform, "graph": spec.Graph, "algorithm": string(spec.Algorithm)})
	return r, err
}
