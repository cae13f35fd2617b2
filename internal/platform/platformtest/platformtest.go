// Package platformtest provides the cross-platform conformance suite:
// every platform's output for every *registered* workload is checked
// against the sequential reference implementation on a matrix of
// graphs. This is the executable form of the Output Validator's
// contract, driven by the workload registry — registering a new
// workload automatically adds it to every platform's conformance run,
// under the validation policy its spec declares (exact for the
// deterministic specifications, epsilon for the float-summing ones).
package platformtest

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/workload"
)

// Graphs returns the conformance graph matrix: directed and undirected
// random graphs, a social-network graph, a disconnected graph, a
// weighted graph (exercising the weighted workloads beyond unit
// weights), and a tiny pathological graph.
func Graphs(tb testing.TB) []*graph.Graph {
	tb.Helper()
	var out []*graph.Graph

	rnd := func(name string, n, m int, seed int64, directed, weighted bool) *graph.Graph {
		r := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(graph.Directed(directed), graph.Dedup(), graph.DropSelfLoops(), graph.WithReverse(), graph.WithName(name))
		b.SetNumVertices(n)
		for i := 0; i < m; i++ {
			u, v := graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n))
			if weighted {
				b.AddEdgeIDWeighted(u, v, 0.25+r.Float64())
			} else {
				b.AddEdgeID(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}

	out = append(out,
		rnd("rand-directed", 300, 1500, 1, true, false),
		rnd("rand-undirected", 300, 1200, 2, false, false),
		rnd("rand-sparse-disconnected", 400, 220, 3, true, false),
		rnd("rand-weighted", 300, 1400, 5, true, true),
		rnd("tiny", 8, 12, 4, false, false),
	)
	sn, err := datagen.Generate(datagen.Config{Persons: 500, Seed: 77, Name: "social"})
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, sn)
	return out
}

// Conformance runs every registered workload of p on every conformance
// graph and fails the test on any output its spec's validator rejects.
func Conformance(t *testing.T, p platform.Platform) {
	t.Helper()
	specs := workload.All()
	for _, g := range Graphs(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			loaded, err := p.LoadGraph(g)
			if err != nil {
				t.Fatalf("LoadGraph: %v", err)
			}
			defer loaded.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			params := algo.Params{Source: 0, Seed: 99, EvoNewVertices: 6}.WithDefaults(g.NumVertices())

			for _, spec := range specs {
				spec := spec
				t.Run(spec.Name(), func(t *testing.T) {
					if err := spec.Supports(g); err != nil {
						t.Skipf("unsupported: %v", err)
					}
					res, err := loaded.Run(ctx, spec.Kind, params)
					if err != nil {
						t.Fatal(err)
					}
					if v := spec.Validate(g, res.Output, spec.Reference(g, params)); !v.Valid {
						t.Fatalf("%s output rejected (%s policy): %s", spec.Kind, spec.Policy, v.Detail)
					}
				})
			}
		})
	}
}

// WorkersSweep runs every registered workload at worker counts 1, 2
// and 8 and asserts each parallel run matches the workers=1 run under
// the workload's validation policy: every output must pass the spec's
// validator, and exact-policy outputs must additionally be
// bit-identical to the single-worker run. factory builds the platform
// at a given worker count (whatever the engine calls it — BSP workers,
// map/reduce slots, dataset partitions).
func WorkersSweep(t *testing.T, factory func(workers int) platform.Platform) {
	t.Helper()
	counts := []int{1, 2, 8}
	gs := Graphs(t)
	sweep := []*graph.Graph{gs[0], gs[3]} // rand-directed + rand-weighted
	specs := workload.All()
	for _, g := range sweep {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			params := algo.Params{Source: 0, Seed: 99, EvoNewVertices: 6}.WithDefaults(g.NumVertices())
			outputs := make(map[int]map[algo.Kind]any, len(counts))
			refs := make(map[algo.Kind]any, len(specs))
			for _, w := range counts {
				loaded, err := factory(w).LoadGraph(g)
				if err != nil {
					t.Fatalf("workers=%d LoadGraph: %v", w, err)
				}
				outputs[w] = map[algo.Kind]any{}
				for _, spec := range specs {
					if err := spec.Supports(g); err != nil {
						continue
					}
					res, err := loaded.Run(context.Background(), spec.Kind, params)
					if err != nil {
						t.Fatalf("workers=%d %s: %v", w, spec.Kind, err)
					}
					if refs[spec.Kind] == nil {
						refs[spec.Kind] = spec.Reference(g, params)
					}
					if v := spec.Validate(g, res.Output, refs[spec.Kind]); !v.Valid {
						t.Fatalf("workers=%d %s rejected (%s policy): %s", w, spec.Kind, spec.Policy, v.Detail)
					}
					outputs[w][spec.Kind] = res.Output
				}
				loaded.Close()
			}
			for _, spec := range specs {
				if spec.Policy != workload.PolicyExact {
					continue
				}
				base, ok := outputs[counts[0]][spec.Kind]
				if !ok {
					continue
				}
				for _, w := range counts[1:] {
					if !reflect.DeepEqual(outputs[w][spec.Kind], base) {
						t.Errorf("%s: workers=%d output differs from workers=1 under the exact policy", spec.Kind, w)
					}
				}
			}
		})
	}
}

// CountersPopulated runs one algorithm and asserts the engine reported
// meaningful counters.
func CountersPopulated(t *testing.T, p platform.Platform) {
	t.Helper()
	g := Graphs(t)[0]
	loaded, err := p.LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	res, err := loaded.Run(context.Background(), algo.CONN, algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.Supersteps == 0 {
		t.Error("Supersteps counter not populated")
	}
	if c.Messages == 0 || c.MessageBytes == 0 {
		t.Errorf("message counters not populated: %+v", c)
	}
}
