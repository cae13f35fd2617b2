package validation

import (
	"math"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{Persons: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidReferenceOutputs(t *testing.T) {
	g := testGraph(t)
	params := algo.Params{Source: 0, Seed: 5}.WithDefaults(g.NumVertices())
	cases := []struct {
		kind algo.Kind
		res  Result
	}{
		{algo.STATS, ValidateStats(algo.RunStats(g), algo.RunStats(g))},
		{algo.BFS, ValidateBFS(g, algo.RunBFS(g, 0), algo.RunBFS(g, 0))},
		{algo.CONN, ValidateConn(g, algo.RunConn(g), algo.RunConn(g))},
		{algo.CD, ValidateCD(g, algo.RunCD(g, params), algo.RunCD(g, params))},
		{algo.EVO, ValidateEvo(g, algo.RunEvo(g, params), algo.RunEvo(g, params))},
		{algo.PR, ValidatePageRank(g, algo.RunPageRank(g, params), algo.RunPageRank(g, params))},
		{algo.SSSP, ValidateSSSP(g, algo.RunSSSP(g, 0), algo.RunSSSP(g, 0))},
		{algo.LCC, ValidateLCC(g, algo.RunLCC(g), algo.RunLCC(g))},
	}
	for _, c := range cases {
		if !c.res.Valid {
			t.Errorf("%s: reference output rejected: %s", c.kind, c.res.Detail)
		}
	}
}

func TestPageRankRejections(t *testing.T) {
	g := testGraph(t)
	params := algo.Params{}.WithDefaults(g.NumVertices())
	want := algo.RunPageRank(g, params)

	bad := make(algo.PROutput, len(want))
	copy(bad, want)
	bad[0] += 1e-3
	if r := ValidatePageRank(g, bad, want); r.Valid {
		t.Error("perturbed rank accepted")
	}
	// Noise within epsilon is fine.
	near := make(algo.PROutput, len(want))
	copy(near, want)
	near[0] += 1e-13
	if r := ValidatePageRank(g, near, want); !r.Valid {
		t.Errorf("epsilon-close ranks rejected: %s", r.Detail)
	}
	if r := ValidatePageRank(g, want[:len(want)-1], want); r.Valid {
		t.Error("truncated output accepted")
	}
	// NaN must never validate — NaN comparisons are false both ways, so
	// epsilon checks alone would let an all-NaN output through.
	nan := make(algo.PROutput, len(want))
	for i := range nan {
		nan[i] = math.NaN()
	}
	if r := ValidatePageRank(g, nan, want); r.Valid {
		t.Error("all-NaN ranks accepted")
	}
}

func TestSSSPRejections(t *testing.T) {
	g := testGraph(t)
	want := algo.RunSSSP(g, 0)
	bad := make(algo.SSSPOutput, len(want))
	copy(bad, want)
	bad[len(bad)/2] += 0.5
	if r := ValidateSSSP(g, bad, want); r.Valid {
		t.Error("corrupted distance accepted")
	}
	if r := ValidateSSSP(g, want[:len(want)-1], want); r.Valid {
		t.Error("truncated output accepted")
	}
}

func TestLCCRejections(t *testing.T) {
	g := testGraph(t)
	want := algo.RunLCC(g)
	bad := make(algo.LCCOutput, len(want))
	copy(bad, want)
	bad[0] = 1.5 // outside [0, 1]
	if r := ValidateLCC(g, bad, want); r.Valid {
		t.Error("out-of-range coefficient accepted")
	}
	copy(bad, want)
	bad[1] += 0.01
	if r := ValidateLCC(g, bad, want); r.Valid {
		t.Error("perturbed coefficient accepted")
	}
}

func TestRankTolerantPolicy(t *testing.T) {
	want := []float64{0.5, 0.3, 0.1, 0.1}
	// Swapping the tied pair is fine.
	if r := RankTolerant([]float64{0.5, 0.3, 0.0999, 0.1001}, want, 1e-2); !r.Valid {
		t.Errorf("tie swap rejected: %s", r.Detail)
	}
	// A genuine inversion is not.
	if r := RankTolerant([]float64{0.3, 0.5, 0.1, 0.1}, want, 1e-2); r.Valid {
		t.Error("rank inversion accepted")
	}
	if r := RankTolerant([]float64{1}, []float64{1, 2}, 0); r.Valid {
		t.Error("length mismatch accepted")
	}
}

func TestStatsRejections(t *testing.T) {
	g := testGraph(t)
	want := algo.RunStats(g)

	bad := want
	bad.Vertices++
	if r := ValidateStats(bad, want); r.Valid {
		t.Error("wrong vertex count accepted")
	}
	bad = want
	bad.Edges--
	if r := ValidateStats(bad, want); r.Valid {
		t.Error("wrong edge count accepted")
	}
	bad = want
	bad.MeanLCC += 0.001
	if r := ValidateStats(bad, want); r.Valid {
		t.Error("wrong LCC accepted")
	}
	// Tiny float noise within epsilon is fine.
	near := want
	near.MeanLCC += 1e-12
	if r := ValidateStats(near, want); !r.Valid {
		t.Errorf("epsilon-close LCC rejected: %s", r.Detail)
	}
}

func TestBFSRejections(t *testing.T) {
	g := testGraph(t)
	want := algo.RunBFS(g, 0)
	bad := make(algo.BFSOutput, len(want))
	copy(bad, want)
	bad[len(bad)/2]++
	if r := ValidateBFS(g, bad, want); r.Valid {
		t.Error("corrupted depth accepted")
	}
	if r := ValidateBFS(g, want[:len(want)-1], want); r.Valid {
		t.Error("truncated output accepted")
	}
}

func TestConnRejections(t *testing.T) {
	g := testGraph(t)
	want := algo.RunConn(g)
	bad := make(algo.ConnOutput, len(want))
	copy(bad, want)
	bad[0] = 99
	if r := ValidateConn(g, bad, want); r.Valid {
		t.Error("corrupted label accepted")
	}
}

func TestCDRejections(t *testing.T) {
	g := testGraph(t)
	params := algo.Params{}.WithDefaults(g.NumVertices())
	want := algo.RunCD(g, params)
	bad := make(algo.CDOutput, len(want))
	copy(bad, want)
	bad[3] = int64(g.NumVertices()) + 5 // out of domain
	if r := ValidateCD(g, bad, want); r.Valid {
		t.Error("out-of-domain label accepted")
	}
	copy(bad, want)
	bad[3] = want[(len(want)+3)/2]
	if bad[3] == want[3] {
		bad[3] = 0
	}
	if bad[3] != want[3] {
		if r := ValidateCD(g, bad, want); r.Valid {
			t.Error("wrong label accepted")
		}
	}
}

func TestEvoRejections(t *testing.T) {
	g := testGraph(t)
	params := algo.Params{Seed: 5}.WithDefaults(g.NumVertices())
	want := algo.RunEvo(g, params)

	bad := want
	bad.NewVertices++
	if r := ValidateEvo(g, bad, want); r.Valid {
		t.Error("wrong vertex count accepted")
	}

	bad = want
	bad.Edges = append([][2]graph.VertexID{}, want.Edges...)
	if len(bad.Edges) > 0 {
		bad.Edges = bad.Edges[:len(bad.Edges)-1]
		if r := ValidateEvo(g, bad, want); r.Valid {
			t.Error("truncated edge set accepted")
		}
	}

	// Structurally invalid: edge from an original vertex.
	bad = want
	bad.Edges = append([][2]graph.VertexID{{0, 1}}, want.Edges...)
	if r := ValidateEvo(g, bad, want); r.Valid {
		t.Error("edge from original vertex accepted")
	}
}
