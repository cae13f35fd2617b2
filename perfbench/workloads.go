package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/artifact"
	"graphalytics/internal/dist"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/gen/rmat"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/dataflow"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/platform/mapreduce"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/stamp"
	"graphalytics/internal/xrand"
)

// defaultSeed is the seed the benchmark runs with when none is given;
// every workload must pass every check on heldOutSeed too.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// sizes are a workload's input sizes.
type sizes struct {
	matrixPersons   int // Datagen social graph of the matrix
	matrixRMATScale int // R-MAT graph of the matrix
	ingestRMATScale int // directed R-MAT graph written to .e/.v files
	ingestPersons   int // Datagen graph written to .e/.v files
	distGraphs      int // small Datagen graphs leased to the runners
	distPersons     int
}

// benchSizes are the benchmark's sizes. On a 2-core x86 VM one cold
// pass takes about 3.5 s on matrix, 2.3 s on dist-small and 1 s on
// ingest, so a 40 s run measures several passes. dist-small's graphs
// have 200 persons rather than 100: with 100, per-cell latency made its
// run-to-run spread twice that of 200 on the same shared host.
var benchSizes = sizes{
	matrixPersons:   1500,
	matrixRMATScale: 10,
	ingestRMATScale: 16,
	ingestPersons:   50000,
	distGraphs:      24,
	distPersons:     200,
}

// config is what every workload is built from.
type config struct {
	seed    uint64
	workers int // nproc: engine, ingest and generator workers
	dir     string
	sizes   sizes
}

// workload describes one benchmark workload.
type workload struct {
	name string
	why  string
	// setup generates the inputs and starts any services; it is timed
	// as setup_s and its generator calls are traced as gen spans.
	setup func(c config, dir string, t *tracer, parent int) (*instance, error)
	// setupReps is how many times an iteration sets up (at least once);
	// all are timed as setup_s, the last one is run.
	setupReps int
}

// workloads are the benchmark's workloads; each why is the reason
// BENCHMARK.json records for it.
var workloads = map[string]*workload{
	"matrix": {
		name: "matrix",
		why: "Cold local campaign, 4 engines x 8 workloads x 2 weighted graphs (Datagen, R-MAT), Parallelism 1: " +
			"engine kernels (~75% of makespan) and the Output Validator (~24%) do the work",
		setup: setupMatrix,
		// Set-up takes about 15 ms against a 3.5 s cold pass.
		setupReps: 4,
	},
	"ingest": {
		name: "ingest",
		why: "Directed R-MAT and undirected Datagen .e/.v files loaded warm by LoadEdgeList, then pregel x BFS: " +
			"parse, intern and CSR build take ~70% of makespan, kernels ~10%",
		setup: setupIngest,
	},
	"dist-small": {
		name: "dist-small",
		why: "Manager + nproc loopback runners, 576 small cells, cold then warm: " +
			"kernels <1/2 of slot time, lease/transfer/stamp overhead the rest. No MapReduce: dist/runner.go:262 sleeps (ROADMAP registry item)",
		setup: setupDist,
	},
}

// input is one dataset of a workload.
type input struct {
	name string
	// spec names the source the way the CLI's -graphs flag does.
	spec string
	// fp is the generator identity the CLI derives for generated
	// graphs (zero for file inputs, which the campaign hashes).
	fp stamp.Fingerprint
	g  *graph.Graph
	// File inputs: the campaign loads edgePath/vertexPath, and the
	// loaded graph must hash like g (want).
	edgePath, vertexPath string
	want                 stamp.Fingerprint
}

// instance is one set-up workload: inputs, engines, caches and, for
// dist-small, the manager and its runners.
type instance struct {
	cfg         config
	inputs      []*input
	platforms   []platform.Platform
	algs        []algo.Kind // nil = every registry workload
	parallelism int
	// coldReps is how many cold passes an iteration makes, each on a
	// fresh cache; warmReps how many warm reruns follow them.
	coldReps int
	warmReps int
	cache    *artifact.Cache
	mgr      *dist.Manager
	stop     func() error // stops the manager and waits for its runners
}

func (in *instance) close() error {
	if in.stop != nil {
		return in.stop()
	}
	return nil
}

// enginePlatforms builds the engines the way the CLI does with
// -platform-workers w, except that MapReduce's modelled 250 ms job
// latency is off (RoundOverhead -1): a benchmark must not time a sleep.
// kernel.mapreduce.modelled_s reports the modelled cost instead.
func enginePlatforms(names []string, w int) []platform.Platform {
	var out []platform.Platform
	for _, n := range names {
		switch n {
		case "pregel":
			out = append(out, pregel.New(pregel.Options{Workers: w}))
		case "mapreduce":
			out = append(out, mapreduce.New(mapreduce.Options{Workers: w, RoundOverhead: -1}))
		case "dataflow":
			out = append(out, dataflow.New(dataflow.Options{Parts: w}))
		case "graphdb":
			out = append(out, graphdb.New(graphdb.Options{}))
		}
	}
	return out
}

// genSocial generates a weighted Datagen graph named as the CLI names
// social:<persons>, with the CLI's generator fingerprint.
func genSocial(c config, persons int, seed uint64, name string, t *tracer, parent int) (*input, error) {
	dc := datagen.Config{Persons: persons, Seed: seed, Weighted: true, Name: name}
	fp := stamp.Dataset("social", dc.Stamp())
	dc.Workers = c.workers
	start := time.Now()
	g, err := datagen.Generate(dc)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	t.record(parent, "gen", "datagen", start, time.Now(),
		map[string]any{"graph": name, "edges": g.NumEdges()})
	return &input{name: name, spec: fmt.Sprintf("social:%d", persons), fp: fp, g: g}, nil
}

// genRMAT generates a weighted R-MAT graph named as the CLI names
// rmat:<scale>, with the CLI's generator fingerprint.
func genRMAT(c config, scale int, t *tracer, parent int) (*input, error) {
	rc := rmat.Config{Scale: scale, Seed: c.seed, Weighted: true}
	fp := stamp.Dataset("rmat", rc.Stamp())
	rc.Workers = c.workers
	start := time.Now()
	g, err := rmat.Generate(rc)
	if err != nil {
		return nil, fmt.Errorf("generating rmat:%d: %w", scale, err)
	}
	t.record(parent, "gen", "rmat", start, time.Now(),
		map[string]any{"graph": g.Name(), "edges": g.NumEdges()})
	return &input{name: g.Name(), spec: fmt.Sprintf("rmat:%d", scale), fp: fp, g: g}, nil
}

// setupMatrix: both weighted graphs for the 4 × 8 × 2 matrix.
func setupMatrix(c config, dir string, t *tracer, parent int) (*instance, error) {
	n := c.sizes.matrixPersons
	social, err := genSocial(c, n, c.seed, fmt.Sprintf("social-%d", n), t, parent)
	if err != nil {
		return nil, err
	}
	rm, err := genRMAT(c, c.sizes.matrixRMATScale, t, parent)
	if err != nil {
		return nil, err
	}
	cache, err := artifact.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	return &instance{
		cfg:         c,
		inputs:      []*input{social, rm},
		platforms:   enginePlatforms(dist.AllPlatforms, c.workers),
		parallelism: 1,
		coldReps:    1,
		warmReps:    15,
		cache:       cache,
	}, nil
}

// setupIngest writes a directed R-MAT graph and an undirected Datagen
// graph as .e/.v files; the cold pass loads them the way -graphs file:
// does.
func setupIngest(c config, dir string, t *tracer, parent int) (*instance, error) {
	rm, err := genRMAT(c, c.sizes.ingestRMATScale, t, parent)
	if err != nil {
		return nil, err
	}
	directed := orient(rm.g, c.seed, c.workers)
	n := c.sizes.ingestPersons
	social, err := genSocial(c, n, c.seed, fmt.Sprintf("social-%d", n), t, parent)
	if err != nil {
		return nil, err
	}
	var inputs []*input
	for _, g := range []*graph.Graph{directed, social.g} {
		prefix := filepath.Join(dir, g.Name())
		start := time.Now()
		if err := g.SaveFiles(prefix); err != nil {
			return nil, fmt.Errorf("writing %s: %w", g.Name(), err)
		}
		t.record(parent, "gen", "write-files", start, time.Now(), map[string]any{"graph": g.Name()})
		inputs = append(inputs, &input{
			name: g.Name(), spec: "file:" + prefix + ".e", g: g,
			edgePath: prefix + ".e", vertexPath: prefix + ".v",
		})
	}
	cache, err := artifact.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	return &instance{
		cfg:       c,
		inputs:    inputs,
		platforms: enginePlatforms([]string{"pregel"}, c.workers),
		// BFS only: with CONN too, pregel kernels took over a third of
		// the pass and ingest barely half.
		algs:        []algo.Kind{algo.BFS},
		parallelism: 1,
		// Set-up (generating and writing the files) costs over twice a
		// cold pass, so each set-up is reused for several cold passes.
		coldReps: 4,
		warmReps: 1,
		cache:    cache,
	}, nil
}

// orient turns an undirected graph into a directed one by giving every
// edge one seed-derived direction, keeping R-MAT's degree skew.
func orient(g *graph.Graph, seed uint64, workers int) *graph.Graph {
	n := int(g.NumEdges())
	srcs := make([]graph.VertexID, 0, n)
	dsts := make([]graph.VertexID, 0, n)
	ws := make([]float64, 0, n)
	g.EdgesW(func(u, v graph.VertexID, w float64) {
		if xrand.EdgeWeight(^seed, uint64(u), uint64(v)) < 0.5 {
			u, v = v, u
		}
		srcs, dsts, ws = append(srcs, u), append(dsts, v), append(ws, w)
	})
	return graph.FromWeightedArcsWorkers(g.Name()+"-directed", g.NumVertices(), srcs, dsts, ws, true, workers)
}

// labelled rebuilds g with explicit identity vertex labels, which is
// the graph its .e/.v files describe: the loader always keeps the .v
// labels, while generators leave them implicit, and a content hash
// covers the label table.
func labelled(g *graph.Graph, workers int) (*graph.Graph, error) {
	opts := []graph.BuilderOption{graph.Directed(g.Directed()), graph.Dedup(), graph.WithName(g.Name())}
	if g.Directed() {
		opts = append(opts, graph.WithReverse())
	}
	b := graph.NewBuilder(opts...)
	labels := make([]int64, g.NumVertices())
	for v := range labels {
		labels[v] = int64(v)
	}
	b.SetLabels(labels)
	b.Grow(int(g.NumEdges()))
	g.EdgesW(func(u, v graph.VertexID, w float64) { b.AddEdgeIDWeighted(u, v, w) })
	return b.BuildParallel(workers)
}

// distPlatforms are the engines leased in dist-small. MapReduce is left
// out: dist.BuildPlatform rebuilds it on the runner without
// RoundOverhead, so every remote MapReduce job would sleep 250 ms.
var distPlatforms = []string{"pregel", "dataflow", "graphdb"}

// setupDist generates the tiny graphs and starts a manager plus nproc
// one-slot runners over loopback, each with its own artifact cache and
// stamp store.
func setupDist(c config, dir string, t *tracer, parent int) (*instance, error) {
	// A cold pass needs fresh runners (they keep graphs in memory), so
	// an iteration makes one.
	in := &instance{cfg: c, parallelism: c.workers, coldReps: 1, warmReps: 15}
	graphs := make(map[string]*graph.Graph, c.sizes.distGraphs)
	for i := 0; i < c.sizes.distGraphs; i++ {
		seed := c.seed + uint64(i)*0x9E3779B97F4A7C15
		inp, err := genSocial(c, c.sizes.distPersons, seed, fmt.Sprintf("social-%d-%02d", c.sizes.distPersons, i), t, parent)
		if err != nil {
			return nil, err
		}
		in.inputs = append(in.inputs, inp)
		graphs[inp.name] = inp.g
	}
	cache, err := artifact.Open(filepath.Join(dir, "manager"))
	if err != nil {
		return nil, err
	}
	in.cache = cache
	specs := make(map[string]dist.PlatformSpec, len(distPlatforms))
	for _, n := range distPlatforms {
		// One kernel worker per engine: nproc runners with one slot each
		// keep the workload within nproc threads of work.
		spec := dist.PlatformSpec{Name: n, Workers: 1}
		specs[n] = spec
		p, err := dist.BuildPlatform(spec)
		if err != nil {
			return nil, err
		}
		in.platforms = append(in.platforms, p)
	}
	start := time.Now()
	mgr, err := dist.NewManager(dist.ManagerOptions{Platforms: specs, Graphs: graphs, Artifacts: cache})
	if err != nil {
		return nil, err
	}
	if err := mgr.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	in.mgr = mgr
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	runErrs := make([]error, c.workers)
	var stores []*stamp.Store
	in.stop = func() error {
		mgr.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cancel()
			<-done
		}
		cancel()
		for _, s := range stores {
			s.Close()
		}
		return errors.Join(runErrs...)
	}
	for i := 0; i < c.workers; i++ {
		rc, err := artifact.Open(filepath.Join(dir, fmt.Sprintf("runner-%d", i)))
		if err == nil {
			var st *stamp.Store
			if st, err = stamp.OpenStore(rc.StampStorePath()); err == nil {
				stores = append(stores, st)
				var r *dist.Runner
				r, err = dist.Connect(mgr.Addr().String(), dist.RunnerOptions{
					Name: fmt.Sprintf("runner-%d", i), Slots: 1,
					Platforms: distPlatforms, Cache: rc, Stamps: st,
				})
				if err == nil {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						runErrs[i] = r.Run(ctx)
					}(i)
				}
			}
		}
		if err != nil {
			in.stop()
			return nil, fmt.Errorf("starting runner %d: %w", i, err)
		}
	}
	t.record(parent, "dist", "start", start, time.Now(), map[string]any{"runners": c.workers})
	return in, nil
}
