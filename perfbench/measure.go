package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/artifact"
	"graphalytics/internal/core"
	"graphalytics/internal/dist"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
	"graphalytics/internal/stamp"
)

// minIterations is the fewest set-up + cold + warm iterations a run
// makes, whatever -seconds says; -trace 1 makes twice as many (one
// untraced and one traced each).
const minIterations = 3

// pass is one campaign over the workload's graphs.
type pass struct {
	id     int // span id (0 when untraced)
	wall   time.Duration
	graphs []*graph.Graph
	rep    *report.Report
	render time.Duration
}

// iteration is one set-up, its cold passes and its warm reruns.
type iteration struct {
	traced bool
	// setups are the iteration's set-up times; the last set-up is the
	// one its passes run on.
	setups []time.Duration
	colds  []coldRun
	warm   []time.Duration
	// uptodate counts the first warm rerun's cells restored from stamps.
	uptodate int
	spans    []span
	// layers holds a traced iteration's per-layer numbers.
	layers map[string]float64
	sizes  []map[string]any
	// signature is what every iteration, traced or not, must repeat
	// exactly: statuses, counters, fingerprints and leases.
	signature string
	// failures lists every failed check, one per failed cell; cells
	// counts the cells the iteration attempted.
	failures []string
	cells    int
}

// coldRun is what the metrics keep of one cold pass.
type coldRun struct {
	id         int // pass span id (0 when untraced)
	wall       time.Duration
	processing time.Duration
	render     time.Duration
	peakRSS    float64    // MiB
	mem        memDelta   // Go runtime activity during the pass
	dist       dist.Stats // lease accounting during the pass
}

type memDelta struct {
	allocMB   float64
	gcCycles  float64
	gcPauseMS float64
}

// result is what a whole run reports.
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
	spans     []span
	sizes     []map[string]any
	// iterations has the reported iterations' own timings, for the
	// result file.
	iterations []map[string]any
}

func (it *iteration) summary() map[string]any {
	var setup, makespan, processing, rss, warm []float64
	for _, d := range it.setups {
		setup = append(setup, d.Seconds())
	}
	for _, c := range it.colds {
		makespan = append(makespan, c.wall.Seconds())
		processing = append(processing, c.processing.Seconds())
		rss = append(rss, c.peakRSS)
	}
	for _, w := range it.warm {
		warm = append(warm, w.Seconds())
	}
	return map[string]any{
		"traced":       it.traced,
		"setup_s":      setup,
		"makespan_s":   makespan,
		"processing_s": processing,
		"rerun_s":      warm,
		"peak_rss_mb":  rss,
	}
}

// measure runs iterations of wl until d has passed and reduces them to
// the reported metrics: end-to-end ones from untraced iterations, or,
// with traced set, per-layer ones from traced iterations interleaved
// with untraced ones.
func measure(wl *workload, c config, d time.Duration, traced bool) (*result, error) {
	// Iteration 0 warms the process up (heap growth, page faults, lazy
	// runtime set-up); it is checked like the rest but not reported.
	start := time.Now()
	warmup, err := runIteration(wl, c, 0, false)
	if err != nil {
		return nil, err
	}
	var its []*iteration
	want := minIterations
	if traced {
		want *= 2
	}
	for i := 1; ; i++ {
		// Stop once another iteration of average length would overrun d.
		elapsed := time.Since(start)
		if len(its) >= want && elapsed+elapsed/time.Duration(i) > d {
			break
		}
		it, err := runIteration(wl, c, i, traced && i%2 == 0)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
	}

	res := &result{sizes: warmup.sizes}
	var plain, withTrace []*iteration
	for i, it := range append([]*iteration{warmup}, its...) {
		res.attempted += it.cells
		res.failed += len(it.failures)
		res.failures = append(res.failures, it.failures...)
		res.spans = append(res.spans, it.spans...)
		if it.signature != warmup.signature {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf(
				"iteration %d (traced=%t) differs from iteration 0 in statuses, counts, fingerprints or leases",
				i, it.traced))
		}
		if i > 0 {
			res.iterations = append(res.iterations, it.summary())
		}
	}
	for _, it := range its {
		if it.traced {
			withTrace = append(withTrace, it)
		} else {
			plain = append(plain, it)
		}
	}
	if traced {
		res.metrics = layerMetrics(withTrace, plain)
	} else {
		res.metrics = endToEndMetrics(plain, res)
	}
	return res, nil
}

// runIteration sets the workload up in a fresh directory, runs the
// timed cold passes and the warm reruns, checks them, and tears down.
func runIteration(wl *workload, c config, n int, traced bool) (it *iteration, err error) {
	dir := filepath.Join(c.dir, fmt.Sprintf("work-%d-%d", os.Getpid(), n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var t *tracer
	if traced {
		t = newTracer(n)
	}
	it = &iteration{traced: traced}

	// A short set-up is repeated, untraced and in directories of its
	// own, so that setup_s has more samples than iterations.
	for k := 1; k < wl.setupReps; k++ {
		start := time.Now()
		extra, err := wl.setup(c, filepath.Join(dir, fmt.Sprintf("setup-%d", k)), nil, 0)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		it.setups = append(it.setups, time.Since(start))
		if err := extra.close(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	setupID := t.reserve()
	start := time.Now()
	in, err := wl.setup(c, dir, t, setupID)
	d := time.Since(start)
	it.setups = append(it.setups, d)
	t.put(setupID, 0, "setup", wl.name, start, start.Add(d), nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if cerr := in.close(); cerr != nil && err == nil {
			err = fmt.Errorf("stopping runners: %w", cerr)
		}
	}()
	// Outside every timed phase: the content hash each file input must
	// load back to, and the input sizes recorded with the result.
	for _, inp := range in.inputs {
		if inp.edgePath != "" {
			ref, err := labelled(inp.g, c.workers)
			if err != nil {
				return nil, err
			}
			if inp.want, err = stamp.OfGraph(ref); err != nil {
				return nil, err
			}
		}
		it.sizes = append(it.sizes, map[string]any{
			"graph": inp.name, "source": inp.spec,
			"vertices": inp.g.NumVertices(), "edges": inp.g.NumEdges(),
		})
	}
	ctx := context.Background()

	// Cold passes, each on a fresh artifact cache and stamp store.
	var first *report.Report
	for r := 0; r < in.coldReps; r++ {
		if r > 0 {
			if in.cache, err = artifact.Open(filepath.Join(dir, fmt.Sprintf("cache-%d", r))); err != nil {
				return nil, err
			}
		}
		cr, rep, err := in.coldPass(ctx, t, it)
		if err != nil {
			return nil, err
		}
		it.colds = append(it.colds, cr)
		fps, err := storedFingerprints(in.cache.StampStorePath())
		if err != nil {
			return nil, err
		}
		sig := signature(rep, fps, cr.dist.Leases)
		if r == 0 {
			it.signature, first = sig, rep
		} else if sig != it.signature {
			it.failures = append(it.failures, fmt.Sprintf(
				"cold pass %d differs from cold pass 0 in statuses, counts, fingerprints or leases", r))
		}
	}

	// Warm reruns: graphs re-acquired from the artifact cache (file
	// inputs re-parsed, as the CLI does), every cell restored from the
	// stamp store, no lease granted.
	for r := 0; r < in.warmReps; r++ {
		var w0 dist.Stats
		if in.mgr != nil {
			w0 = in.mgr.StatsSnapshot()
		}
		w, err := in.campaign(ctx, t, "warm")
		if err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		it.warm = append(it.warm, w.wall)
		if in.mgr != nil {
			if got := in.mgr.StatsSnapshot().Leases - w0.Leases; got != 0 {
				it.failures = append(it.failures, fmt.Sprintf("warm rerun granted %d leases, want 0", got))
			}
		}
		it.checkWarm(w.rep)
		if r == 0 {
			for _, row := range w.rep.Results {
				if row.Provenance == report.ProvenanceUptodate {
					it.uptodate++
				}
			}
		}
	}

	it.spans = t.snapshot()
	if traced {
		it.layers = iterationLayers(it, first)
	}
	return it, nil
}

// coldPass runs one timed cold pass — the timed phase of makespan_s,
// processing_s and peak_rss_mb — and checks it. Set-up garbage is
// collected first so every pass starts from the same heap.
func (in *instance) coldPass(ctx context.Context, t *tracer, it *iteration) (coldRun, *report.Report, error) {
	runtime.GC()
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var d0, d1 dist.Stats
	if in.mgr != nil {
		d0 = in.mgr.StatsSnapshot()
	}
	rss := startRSSSampler()
	p, err := in.campaign(ctx, t, "cold")
	peak := rss.stop()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return coldRun{}, nil, fmt.Errorf("cold pass: %w", err)
	}
	if in.mgr != nil {
		d1 = in.mgr.StatsSnapshot()
	}
	cr := coldRun{
		id:         p.id,
		wall:       p.wall,
		processing: processingTime(p.rep),
		render:     p.render,
		peakRSS:    peak,
		mem: memDelta{
			allocMB:   float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
			gcCycles:  float64(ms1.NumGC - ms0.NumGC),
			gcPauseMS: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		},
		dist: dist.Stats{
			Leases:       d1.Leases - d0.Leases,
			Releases:     d1.Releases - d0.Releases,
			StaleResults: d1.StaleResults - d0.StaleResults,
		},
	}
	it.checkCold(in, p.rep, cr.dist)
	if err := it.checkFiles(in, p.graphs); err != nil {
		return coldRun{}, nil, err
	}
	return cr, p.rep, nil
}

// campaign runs one pass the way the CLI runs a campaign with
// -cache-dir: graphs acquired through core.Ingest (generated graphs via
// the artifact cache, file graphs via graph.LoadEdgeList), a stamp
// store opened next to the artifacts, validation on, a 10 ms monitor
// interval, and the report rendered at the end.
func (in *instance) campaign(ctx context.Context, t *tracer, kind string) (pass, error) {
	p := pass{id: t.reserve()}
	start := time.Now()
	defer func() { t.put(p.id, 0, "pass", kind, start, start.Add(p.wall), nil) }()

	graphs, ingests, stamps, err := in.acquire(t, p.id)
	if err != nil {
		return p, err
	}
	p.graphs = graphs
	store, err := stamp.OpenStore(in.cache.StampStorePath())
	if err != nil {
		return p, err
	}
	defer store.Close()
	plats := in.platforms
	progress := func(report.RunResult) {}
	if t != nil {
		plats = make([]platform.Platform, len(in.platforms))
		for i, pl := range in.platforms {
			plats[i] = traceable(pl, t, p.id)
		}
		progress = t.progress(p.id)
	}
	b := &core.Benchmark{
		Platforms:       plats,
		Graphs:          graphs,
		Algorithms:      in.algs,
		Params:          algo.Params{Seed: in.cfg.seed},
		Timeout:         5 * time.Minute,
		Validate:        true,
		MonitorInterval: 10 * time.Millisecond,
		Parallelism:     in.parallelism,
		Ingests:         ingests,
		Stamps:          store,
		GraphStamps:     stamps,
		Artifacts:       in.cache,
		Progress:        progress,
	}
	if in.mgr != nil {
		b.Executor = in.mgr
		if t != nil {
			b.Executor = &tracedExecutor{inner: in.mgr, t: t, parent: p.id}
		}
	}
	rep, err := b.Run(ctx)
	if err != nil {
		return p, err
	}
	p.rep = rep
	rs := time.Now()
	if err := render(rep); err != nil {
		return p, err
	}
	re := time.Now()
	p.render = re.Sub(rs)
	t.record(p.id, "report", "render", rs, re, nil)
	p.wall = time.Since(start)
	return p, nil
}

// acquire builds the pass's graph list as the CLI's buildGraphs does.
func (in *instance) acquire(t *tracer, parent int) ([]*graph.Graph, []report.IngestStat, map[string]stamp.Fingerprint, error) {
	var graphs []*graph.Graph
	var ingests []report.IngestStat
	stamps := make(map[string]stamp.Fingerprint)
	w := in.cfg.workers
	for _, inp := range in.inputs {
		inp := inp
		id := t.reserve()
		var build func() (*graph.Graph, error)
		if inp.edgePath != "" {
			build = func() (*graph.Graph, error) {
				var a0 uint64
				if t != nil {
					a0 = totalAlloc()
				}
				start := time.Now()
				g, err := graph.LoadEdgeList(inp.edgePath, inp.vertexPath,
					graph.LoadOptions{Directed: inp.g.Directed(), Name: inp.name, Workers: w})
				end := time.Now()
				if err == nil && t != nil {
					t.record(id, "graph", "LoadEdgeList", start, end, map[string]any{
						"graph": inp.name, "edges": g.NumEdges(), "alloc_bytes": totalAlloc() - a0,
					})
				}
				return g, err
			}
		} else {
			build = func() (*graph.Graph, error) {
				start := time.Now()
				g, hit, err := in.cache.LoadGraph(inp.fp, w)
				if err != nil {
					return nil, err
				}
				if hit {
					t.record(id, "artifact", "LoadGraph", start, time.Now(), map[string]any{"graph": inp.name})
					return g, nil
				}
				start = time.Now()
				if err := in.cache.StoreGraph(inp.fp, inp.g); err != nil {
					return nil, err
				}
				if t != nil {
					end := time.Now()
					var size int64
					if fi, err := os.Stat(in.cache.GraphPath(inp.fp)); err == nil {
						size = fi.Size()
					}
					t.record(id, "artifact", "StoreGraph", start, end, map[string]any{"graph": inp.name, "bytes": size})
				}
				return inp.g, nil
			}
		}
		start := time.Now()
		g, st, err := core.Ingest(inp.spec, w, build)
		t.put(id, parent, "ingest", "core.Ingest", start, time.Now(), map[string]any{"graph": inp.name})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("acquiring %s: %w", inp.name, err)
		}
		if !inp.fp.IsZero() {
			stamps[g.Name()] = inp.fp
		}
		graphs = append(graphs, g)
		ingests = append(ingests, st)
	}
	return graphs, ingests, stamps, nil
}

// render produces what the CLI writes to its report directory:
// report.txt's tables, results.csv and report.json.
func render(rep *report.Report) error {
	var b bytes.Buffer
	b.WriteString(report.IngestTable(rep.Ingests))
	b.WriteString(report.Figure4Table(rep.Results))
	b.WriteString(report.Figure5Table(rep.Results))
	for _, r := range rep.Results {
		if r.Algorithm == algo.SSSP {
			b.WriteString(report.KTEPSTable(rep.Results, algo.SSSP))
			break
		}
	}
	b.WriteString(report.ResourceTable(rep.Results))
	b.WriteString(rep.Summary())
	if err := report.WriteCSV(&b, rep.Results); err != nil {
		return err
	}
	return json.NewEncoder(&b).Encode(rep)
}

// checkCold applies the cold pass's correctness checks.
func (it *iteration) checkCold(in *instance, rep *report.Report, leases dist.Stats) {
	rs := rep.Results
	it.cells += len(rs)
	for _, r := range rs {
		if r.Status != report.StatusSuccess || !r.Validation.Valid {
			it.failures = append(it.failures, fmt.Sprintf("cold %s/%s/%s: status %s: %s",
				r.Platform, r.Graph, r.Algorithm, r.Status, r.Err))
		} else if !executed(r) {
			it.failures = append(it.failures, fmt.Sprintf("cold %s/%s/%s restored (%s), want executed",
				r.Platform, r.Graph, r.Algorithm, r.Provenance))
		}
	}
	if in.mgr != nil && (leases.Leases != len(rs) || leases.Releases != 0 || leases.StaleResults != 0) {
		it.failures = append(it.failures, fmt.Sprintf(
			"cold leases %d (want %d), releases %d, stale results %d (want 0)",
			leases.Leases, len(rs), leases.Releases, leases.StaleResults))
	}
}

// checkWarm requires every cell of a warm rerun to be restored from
// the stamp store.
func (it *iteration) checkWarm(rep *report.Report) {
	it.cells += len(rep.Results)
	for _, r := range rep.Results {
		if r.Status != report.StatusSuccess || r.Provenance != report.ProvenanceUptodate {
			it.failures = append(it.failures, fmt.Sprintf("warm %s/%s/%s: status %s provenance %q, want success uptodate",
				r.Platform, r.Graph, r.Algorithm, r.Status, r.Provenance))
		}
	}
}

// checkFiles requires every graph loaded from a file to hash like the
// generator graph it was written from. It runs after the cold pass,
// outside the timed phase.
func (it *iteration) checkFiles(in *instance, graphs []*graph.Graph) error {
	for i, inp := range in.inputs {
		if inp.edgePath == "" {
			continue
		}
		got, err := stamp.OfGraph(graphs[i])
		if err != nil {
			return err
		}
		if got != inp.want {
			it.failures = append(it.failures, fmt.Sprintf("%s loaded from %s hashes %s, generator graph %s",
				inp.name, filepath.Base(inp.edgePath), got.Short(), inp.want.Short()))
		}
	}
	return nil
}

// storedFingerprints lists the cell fingerprints in a stamp store file.
func storedFingerprints(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var fps []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var e struct {
			FP string `json:"fp"`
		}
		if json.Unmarshal(sc.Bytes(), &e) == nil && e.FP != "" {
			fps = append(fps, e.FP)
		}
	}
	sort.Strings(fps)
	return fps, sc.Err()
}

// signature digests what must repeat exactly between iterations with
// the same seed, traced or not: each cell's status and counters, the
// stamped fingerprints, and the cold pass's lease count.
func signature(rep *report.Report, fps []string, leases int) string {
	var b strings.Builder
	for _, r := range rep.Results {
		c := r.Counters
		fmt.Fprintf(&b, "%s/%s/%s %s steps=%d msgs=%d edges=%d\n",
			r.Platform, r.Graph, r.Algorithm, r.Status, c.Supersteps, c.Messages, c.EdgesTraversed)
	}
	fmt.Fprintf(&b, "fingerprints=%s\nleases=%d\n", strings.Join(fps, ","), leases)
	return b.String()
}
