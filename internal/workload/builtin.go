package workload

import (
	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/validation"
)

// The built-in workload suite: the source paper's five algorithms in
// its reporting order, then the three LDBC Graphalytics v1.0.1
// additions. Registration order is the report row order.
//
// Aliases follow the LDBC naming: WCC for CONN, CDLP for CD, PAGERANK
// for PR. Each Validate asserts its output type before delegating to
// the typed validator, so a platform returning the wrong type is an
// invalid result, not a panic.
func init() {
	Register(Spec{
		Kind:        algo.BFS,
		Description: "breadth-first search depths from a seed vertex",
		Policy:      PolicyExact,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunBFS(g, p.Source)
		},
		Validate: typed(validation.ValidateBFS),
	})
	Register(Spec{
		Kind:         algo.CD,
		Aliases:      []string{"CDLP"},
		Description:  "community detection by Leung label propagation",
		Policy:       PolicyExact,
		NeedsReverse: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunCD(g, p)
		},
		Validate: typed(validation.ValidateCD),
	})
	Register(Spec{
		Kind:         algo.CONN,
		Aliases:      []string{"WCC"},
		Description:  "connected components (weak, labels = component minima)",
		Policy:       PolicyExact,
		NeedsReverse: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunConn(g)
		},
		Validate: typed(validation.ValidateConn),
	})
	Register(Spec{
		Kind:         algo.EVO,
		Description:  "forest-fire graph evolution prediction",
		Policy:       PolicyExact,
		NeedsReverse: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunEvo(g, p)
		},
		Validate: typed(validation.ValidateEvo),
	})
	Register(Spec{
		Kind:         algo.STATS,
		Description:  "vertex/edge counts and mean local clustering coefficient",
		Policy:       PolicyEpsilon,
		NeedsReverse: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunStats(g)
		},
		Validate: typed(func(_ *graph.Graph, got, want algo.StatsOutput) validation.Result {
			return validation.ValidateStats(got, want)
		}),
	})
	Register(Spec{
		Kind:        algo.PR,
		Aliases:     []string{"PAGERANK"},
		Description: "PageRank, damping 0.85, fixed iteration count",
		Policy:      PolicyEpsilon,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunPageRank(g, p)
		},
		Validate: typed(validation.ValidatePageRank),
	})
	Register(Spec{
		Kind:         algo.SSSP,
		Description:  "single-source shortest paths over float64 edge weights",
		Policy:       PolicyExact,
		NeedsWeights: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunSSSP(g, p.Source)
		},
		Validate: typed(validation.ValidateSSSP),
	})
	Register(Spec{
		Kind:         algo.LCC,
		Description:  "per-vertex local clustering coefficient",
		Policy:       PolicyEpsilon,
		NeedsReverse: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunLCC(g)
		},
		Validate: typed(validation.ValidateLCC),
	})
}

// typed adapts a typed validator to Spec.Validate: it asserts the
// platform output and the reference output to T first, so a platform
// returning the wrong type is an invalid result, not a panic.
func typed[T any](validate func(g *graph.Graph, got, want T) validation.Result) func(*graph.Graph, any, any) validation.Result {
	return func(g *graph.Graph, got, want any) validation.Result {
		gotT, okG := got.(T)
		if !okG {
			return validation.Fail("output has type %T, want %T", got, *new(T))
		}
		wantT, okW := want.(T)
		if !okW {
			return validation.Fail("reference has type %T, want %T", want, *new(T))
		}
		return validate(g, gotT, wantT)
	}
}
