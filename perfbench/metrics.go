package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphalytics/internal/dist"
	"graphalytics/internal/report"
	"graphalytics/internal/stamp"
	registry "graphalytics/internal/workload"
)

// mreduceJobLatency is MapReduce's modelled per-job latency (the engine
// default RoundOverhead), reported as kernel.mapreduce.modelled_s
// instead of being slept.
const mreduceJobLatency = 250 * time.Millisecond

// metricDef is one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics of -trace 0 runs.
var endToEnd = []metricDef{
	{"makespan_s", "s", "lower"},
	{"processing_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"rerun_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"pass_frac", "ratio", "higher"},
}

// perLayer lists the metrics of -trace 1 runs. A layer a workload does
// not exercise reports 0.
func perLayer() []metricDef {
	s, c, mb := "s", "count", "MiB"
	defs := []metricDef{
		{"gen.datagen_s", s, "lower"},
		{"gen.rmat_s", s, "lower"},
		{"graph.ingest_s", s, "lower"},
		{"graph.ingest_medges_per_s", "Medges/s", "higher"},
		{"graph.ingest_alloc_mb", mb, "lower"},
	}
	for _, e := range dist.AllPlatforms {
		defs = append(defs,
			metricDef{"etl." + e + "_s", s, "lower"},
			metricDef{"kernel." + e + "_s", s, "lower"})
		for _, k := range registry.Kinds() {
			defs = append(defs, metricDef{"kernel." + e + "." + string(k) + "_s", s, "lower"})
		}
		defs = append(defs,
			metricDef{"kernel." + e + ".alloc_mb", mb, "lower"},
			metricDef{"kernel." + e + ".messages", c, "lower"},
			metricDef{"kernel." + e + ".supersteps", c, "lower"},
			metricDef{"kernel." + e + ".edges_traversed", c, "lower"},
			metricDef{"kernel." + e + ".spilled_mb", mb, "lower"},
			metricDef{"kernel." + e + ".peak_mem_mb", mb, "lower"},
			metricDef{"kernel." + e + ".busy_skew", "ratio", "lower"})
	}
	defs = append(defs,
		metricDef{"kernel.graphdb.cache_hit_ratio", "ratio", "higher"},
		metricDef{"kernel.mapreduce.modelled_s", s, "lower"},
		metricDef{"validate_s", s, "lower"})
	for _, k := range registry.Kinds() {
		defs = append(defs, metricDef{"validate." + string(k) + "_s", s, "lower"})
	}
	defs = append(defs,
		metricDef{"artifact.graph_store_s", s, "lower"},
		metricDef{"artifact.graph_load_s", s, "lower"},
		metricDef{"artifact.bytes", "bytes", "lower"},
		metricDef{"stamp.uptodate_cells", c, "higher"},
		metricDef{"dist.lease_p50_ms", "ms", "lower"},
		metricDef{"dist.lease_p99_ms", "ms", "lower"},
		metricDef{"dist.lease_samples", c, "higher"},
		metricDef{"dist.leases", c, "lower"},
		metricDef{"dist.releases", c, "lower"},
		metricDef{"dist.stale_results", c, "lower"},
		metricDef{"dist.cells_per_s", "1/s", "higher"},
		metricDef{"core.unaccounted_s", s, "lower"},
		metricDef{"report.render_s", s, "lower"},
		metricDef{"go.alloc_mb", mb, "lower"},
		metricDef{"go.gc_cycles", c, "lower"},
		metricDef{"go.gc_pause_ms", "ms", "lower"},
		metricDef{"trace.overhead_s", s, "lower"})
	return defs
}

// endToEndMetrics reduces untraced iterations to the end-to-end
// metrics: the median over all cold passes, warm reruns and set-ups.
func endToEndMetrics(its []*iteration, res *result) map[string]metric {
	var makespan, processing, setup, rerun, rss []float64
	for _, it := range its {
		for _, c := range it.colds {
			makespan = append(makespan, c.wall.Seconds())
			processing = append(processing, c.processing.Seconds())
			rss = append(rss, c.peakRSS)
		}
		for _, w := range it.warm {
			rerun = append(rerun, w.Seconds())
		}
		for _, d := range it.setups {
			setup = append(setup, d.Seconds())
		}
	}
	vals := map[string]float64{
		"makespan_s":   median(makespan),
		"processing_s": median(processing),
		"setup_s":      median(setup),
		"rerun_s":      median(rerun),
		"peak_rss_mb":  median(rss),
		"pass_frac":    1 - float64(res.failed)/float64(max(res.attempted, 1)),
	}
	return withUnits(endToEnd, vals)
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// processingTime is the paper's processing time: the summed Runtime of
// the cells a pass executed (restored cells excluded).
func processingTime(rep *report.Report) time.Duration {
	var sum time.Duration
	for _, r := range rep.Results {
		if executed(r) {
			sum += r.Runtime
		}
	}
	return sum
}

func executed(r report.RunResult) bool {
	return r.Provenance != report.ProvenanceUptodate && r.Provenance != report.ProvenanceResumed
}

// layerMetrics reduces traced iterations to the per-layer metrics (the
// median over traced iterations of each) and reports the tracing
// overhead against the untraced iterations of the same run.
func layerMetrics(traced, plain []*iteration) map[string]metric {
	defs := perLayer()
	vals := make(map[string]float64, len(defs))
	for _, d := range defs {
		var xs []float64
		for _, it := range traced {
			xs = append(xs, it.layers[d.name])
		}
		vals[d.name] = median(xs)
	}
	vals["trace.overhead_s"] = median(coldWalls(traced)) - median(coldWalls(plain))
	return withUnits(defs, vals)
}

func coldWalls(its []*iteration) []float64 {
	var xs []float64
	for _, it := range its {
		for _, c := range it.colds {
			xs = append(xs, c.wall.Seconds())
		}
	}
	return xs
}

// iterationLayers derives one traced iteration's per-layer numbers from
// its spans, its first cold pass and that pass's report rows.
func iterationLayers(it *iteration, rep *report.Report) map[string]float64 {
	m := map[string]float64{}
	byID := make(map[int]span, len(it.spans))
	for _, s := range it.spans {
		byID[s.id] = s
	}
	// passOf follows parents up to the enclosing pass span.
	passOf := func(s span) span {
		for s.parent != 0 {
			p, ok := byID[s.parent]
			if !ok || p.layer == "pass" {
				return p
			}
			s = p
		}
		return span{}
	}
	c := it.colds[0]
	cold := c.id
	var ingestEdges float64
	var leaseMS []float64
	var coldSpans [][2]time.Time
	warmPasses := float64(max(len(it.warm), 1))
	for _, s := range it.spans {
		d := s.dur().Seconds()
		pass := passOf(s)
		inCold, inWarm := pass.id == cold, pass.name == "warm"
		if inCold {
			coldSpans = append(coldSpans, [2]time.Time{s.start, s.end})
		}
		plat, _ := s.attrs["platform"].(string)
		alloc, _ := s.attrs["alloc_bytes"].(uint64)
		switch s.layer {
		case "gen":
			if s.name != "write-files" {
				m["gen."+s.name+"_s"] += d
			}
		case "graph":
			if inCold {
				m["graph.ingest_s"] += d
				m["graph.ingest_alloc_mb"] += float64(alloc) / (1 << 20)
				e, _ := s.attrs["edges"].(int64)
				ingestEdges += float64(e)
			}
		case "etl":
			if inCold {
				m["etl."+plat+"_s"] += d
			}
		case "kernel":
			if inCold {
				m["kernel."+plat+"_s"] += d
				m["kernel."+plat+"."+s.name+"_s"] += d
				m["kernel."+plat+".alloc_mb"] += float64(alloc) / (1 << 20)
			}
		case "validate":
			if inCold {
				m["validate_s"] += d
				m["validate."+s.name+"_s"] += d
			}
		case "artifact":
			switch {
			case s.name == "StoreGraph" && inCold:
				m["artifact.graph_store_s"] += d
				b, _ := s.attrs["bytes"].(int64)
				m["artifact.bytes"] += float64(b)
			case s.name == "LoadGraph" && inWarm:
				m["artifact.graph_load_s"] += d / warmPasses
			}
		case "dist":
			if s.name == "ExecuteCell" && inCold {
				leaseMS = append(leaseMS, float64(s.dur().Nanoseconds())/1e6)
			}
		}
	}
	if m["graph.ingest_s"] > 0 {
		m["graph.ingest_medges_per_s"] = ingestEdges / m["graph.ingest_s"] / 1e6
	}

	rowLayers(m, rep, len(leaseMS) > 0)
	m["stamp.uptodate_cells"] = float64(it.uptodate)
	if len(leaseMS) > 0 {
		m["dist.lease_p50_ms"] = quantile(leaseMS, 0.50)
		m["dist.lease_p99_ms"] = quantile(leaseMS, 0.99)
		m["dist.lease_samples"] = float64(len(leaseMS))
		m["dist.leases"] = float64(c.dist.Leases)
		m["dist.releases"] = float64(c.dist.Releases)
		m["dist.stale_results"] = float64(c.dist.StaleResults)
		m["dist.cells_per_s"] = float64(len(rep.Results)) / c.wall.Seconds()
	}
	m["core.unaccounted_s"] = c.wall.Seconds() - union(coldSpans).Seconds()
	m["report.render_s"] = c.render.Seconds()
	m["go.alloc_mb"] = c.mem.allocMB
	m["go.gc_cycles"] = c.mem.gcCycles
	m["go.gc_pause_ms"] = c.mem.gcPauseMS
	return m
}

// rowLayers adds the engine counters of the cold pass's executed cells.
// Remote cells run inside the runners, where this package cannot wrap
// the engine, so with remote set their kernel and ETL times come from
// the report rows (RunResult.Runtime and LoadTime) instead of spans.
func rowLayers(m map[string]float64, rep *report.Report, remote bool) {
	skews := map[string][]float64{}
	var hits, misses float64
	for _, r := range rep.Results {
		if !executed(r) {
			continue
		}
		p, c := r.Platform, r.Counters
		if remote {
			m["kernel."+p+"_s"] += r.Runtime.Seconds()
			m["kernel."+p+"."+string(r.Algorithm)+"_s"] += r.Runtime.Seconds()
			m["etl."+p+"_s"] += r.LoadTime.Seconds()
		}
		m["kernel."+p+".messages"] += float64(c.Messages)
		m["kernel."+p+".supersteps"] += float64(c.Supersteps)
		m["kernel."+p+".edges_traversed"] += float64(c.EdgesTraversed)
		m["kernel."+p+".spilled_mb"] += float64(c.SpilledBytes) / (1 << 20)
		if pm := float64(c.PeakMemoryBytes) / (1 << 20); pm > m["kernel."+p+".peak_mem_mb"] {
			m["kernel."+p+".peak_mem_mb"] = pm
		}
		if s, ok := busySkew(c.WorkerBusy); ok {
			skews[p] = append(skews[p], s)
		}
		if p == "graphdb" {
			hits += float64(c.CacheHits)
			misses += float64(c.CacheMisses)
		}
		if p == "mapreduce" {
			m["kernel.mapreduce.modelled_s"] += float64(c.Supersteps) * mreduceJobLatency.Seconds()
		}
	}
	for p, xs := range skews {
		m["kernel."+p+".busy_skew"] = median(xs)
	}
	if hits+misses > 0 {
		m["kernel.graphdb.cache_hit_ratio"] = hits / (hits + misses)
	}
}

// busySkew is max over mean of per-worker busy time.
func busySkew(busy []time.Duration) (float64, bool) {
	var sum, hi time.Duration
	for _, b := range busy {
		sum += b
		hi = max(hi, b)
	}
	if sum <= 0 {
		return 0, false
	}
	return float64(hi) / (float64(sum) / float64(len(busy))), true
}

// union is the total length covered by a set of intervals.
func union(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(cur[1]) {
			if i > 0 {
				total += cur[1].Sub(cur[0])
			}
			cur = x
			continue
		}
		if x[1].After(cur[1]) {
			cur[1] = x[1]
		}
	}
	if len(iv) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// rssSampler tracks the peak resident set size while a phase runs.
type rssSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  float64
}

// rssInterval is how often the resident set is sampled.
const rssInterval = 2 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{})}
	s.peak = residentMB()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.peak = max(s.peak, residentMB())
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MiB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	s.wg.Wait()
	return max(s.peak, residentMB())
}

// residentMB reads the process's resident set size from
// /proc/self/statm, falling back to the Go runtime's mapped memory
// where /proc is absent.
func residentMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		f := strings.Fields(string(data))
		if len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// environment records what a result was measured on, so results from
// two machines or two scales are told apart instead of diffed.
func environment(c config, wl *workload, res *result) map[string]any {
	return map[string]any{
		"workload":   wl.name,
		"seed":       c.seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"inputs":     res.sizes,
		"why":        wl.why,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the version stamp.BinaryVersion reads from the build
// (module version, VCS revision and a +dirty marker). When the tree is
// dirty or the build has no VCS information, a digest of the Go sources
// and go.mod files under the working directory (run.sh runs the
// benchmark from the repository root) is appended, so two different
// uncommitted trees are told apart too.
func commit() string {
	v := stamp.BinaryVersion()
	if strings.Contains(v, "@") && !strings.HasSuffix(v, "+dirty") {
		return v
	}
	return v + " src-sha256:" + sourceDigest()
}

func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				h.Write([]byte(path))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
